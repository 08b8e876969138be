#include "sched/scheduler.h"

#include "sched/aniello.h"
#include "sched/local_search.h"
#include "sched/round_robin.h"
#include "sched/rstorm.h"
#include "sched/traffic_aware.h"

namespace tstorm::sched {

namespace {

template <class Algorithm>
void add(AlgorithmRegistry& registry) {
  registry.register_algorithm(Algorithm().name(),
                              [] { return std::make_unique<Algorithm>(); });
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  [[maybe_unused]] static const bool builtins_registered = [] {
    add<TrafficAwareScheduler>(registry);
    add<RoundRobinScheduler>(registry);
    add<TStormInitialScheduler>(registry);
    add<AnielloOfflineScheduler>(registry);
    add<AnielloOnlineScheduler>(registry);
    add<LocalSearchScheduler>(registry);
    add<RStormScheduler>(registry);
    return true;
  }();
  return registry;
}

bool AlgorithmRegistry::register_algorithm(const std::string& name,
                                           Factory factory) {
  for (const auto& [n, f] : factories_) {
    if (n == name) return false;
  }
  factories_.emplace_back(name, std::move(factory));
  return true;
}

std::unique_ptr<ISchedulingAlgorithm> AlgorithmRegistry::create(
    const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return f();
  }
  return nullptr;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

}  // namespace tstorm::sched
