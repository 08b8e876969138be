#include "trace/trace.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace tstorm::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTopologySubmitted:
      return "topology-submitted";
    case EventKind::kSchedulePublished:
      return "schedule-published";
    case EventKind::kScheduleApplied:
      return "schedule-applied";
    case EventKind::kWorkerStarted:
      return "worker-started";
    case EventKind::kWorkerDraining:
      return "worker-draining";
    case EventKind::kWorkerStopped:
      return "worker-stopped";
    case EventKind::kSpoutsHalted:
      return "spouts-halted";
    case EventKind::kOverloadTriggered:
      return "overload-triggered";
    case EventKind::kNodeFailed:
      return "node-failed";
    case EventKind::kNodeRecovered:
      return "node-recovered";
    case EventKind::kTopologyKilled:
      return "topology-killed";
    case EventKind::kNodeDeclaredDead:
      return "node-declared-dead";
    case EventKind::kNodeDeclaredAlive:
      return "node-declared-alive";
    case EventKind::kChaosFault:
      return "chaos-fault";
    case EventKind::kBackpressureOn:
      return "backpressure-on";
    case EventKind::kBackpressureOff:
      return "backpressure-off";
    case EventKind::kTupleShed:
      return "tuple-shed";
    case EventKind::kScheduleRejected:
      return "schedule-rejected";
    case EventKind::kCheckpointComplete:
      return "checkpoint-complete";
    case EventKind::kCheckpointAborted:
      return "checkpoint-aborted";
    case EventKind::kStateRestored:
      return "state-restored";
  }
  return "?";
}

std::string format_event(const Event& e) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "[" << std::setw(8) << e.time
     << "s] " << to_string(e.kind);
  if (e.topology >= 0) os << " topology=" << e.topology;
  if (e.node >= 0) os << " node=" << e.node;
  if (e.slot >= 0) os << " slot=" << e.slot;
  if (e.version > 0) os << " version=" << e.version;
  if (!e.detail.empty()) os << " (" << e.detail << ")";
  return os.str();
}

void TraceLog::record(Event event) {
  ++total_;
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) events_.pop_front();
}

std::vector<Event> TraceLog::of_kind(EventKind kind) const {
  std::vector<Event> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::vector<Event> TraceLog::between(sim::Time from, sim::Time to) const {
  std::vector<Event> out;
  for (const auto& e : events_) {
    if (e.time >= from && e.time < to) out.push_back(e);
  }
  return out;
}

std::size_t TraceLog::count(EventKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void TraceLog::dump(std::ostream& os, sim::Time from, sim::Time to) const {
  for (const auto& e : events_) {
    if (e.time >= from && e.time < to) os << format_event(e) << "\n";
  }
}

}  // namespace tstorm::trace
