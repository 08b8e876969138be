// Placement golden test: every registered algorithm, run on the property
// sweep's inputs, on a 212-executor input shaped like the benchmark's
// online scheduling workload and on five variants of it, must return
// exactly the placements recorded below. A result is its FNV-1a hash over the sorted (task, slot) pairs,
// followed by the count_relaxed and capacity_relaxed flags.
//
// This is the oracle for work that changes how a scheduler computes but
// not what it decides (indexing, caching, data layout). A change that is
// meant to move placements regenerates the table: on a mismatch the test
// prints every actual hash in the table's format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "sweep_inputs.h"

namespace tstorm::sched {
namespace {

std::uint64_t placement_hash(const ScheduleResult& r) {
  std::vector<std::pair<TaskId, SlotIndex>> pairs(r.assignment.begin(),
                                                  r.assignment.end());
  std::sort(pairs.begin(), pairs.end());
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [task, slot] : pairs) {
    mix(task);
    mix(slot);
  }
  mix(r.count_relaxed ? 1 : 0);
  mix(r.capacity_relaxed ? 1 : 0);
  return h;
}

/// Two copies each of the paper's Throughput Test (5/15/15 + 10 ackers),
/// Word Count (2/5/5/5 + 10) and Log Stream (5/5/5/5/2/2 + 10): 212
/// executors with seeded loads and traffic, on a heterogeneous fleet of
/// 4 x 8-slot, 12 x 4-slot and 4 x 2-slot nodes at 85 % of capacity,
/// gamma 1.7.
SchedulerInput fleet_input() {
  struct Component {
    int tasks;
    double max_cpu;
    int source;  // upstream component, -1 for a spout
  };
  struct Shape {
    std::vector<Component> components;
    double rate;  // base tuples/s per producer-consumer pair
    int workers;
  };
  const Shape throughput{{{5, 600, -1}, {15, 900, 0}, {15, 700, 1}}, 200, 20};
  const Shape word_count{
      {{2, 300, -1}, {5, 500, 0}, {5, 400, 1}, {5, 300, 2}}, 50, 10};
  const Shape log_stream{{{5, 300, -1},
                          {5, 500, 0},
                          {5, 400, 1},
                          {5, 400, 1},
                          {2, 300, 2},
                          {2, 300, 3}},
                         80,
                         10};
  constexpr int kAckers = 10;

  SchedulerInput in;
  in.gamma = 1.7;
  struct Group {
    int count, slots, cores;
    double memory_mib, network_mbps;
  };
  NodeId node = 0;
  for (const Group& g : {Group{4, 8, 8, 32768, 10000},
                         Group{12, 4, 4, 16384, 1000},
                         Group{4, 2, 2, 4096, 1000}}) {
    for (int i = 0; i < g.count; ++i, ++node) {
      for (int p = 0; p < g.slots; ++p) {
        in.slots.push_back({static_cast<SlotIndex>(in.slots.size()), node, p});
      }
      in.nodes.push_back({node,
                          {0.85 * 2000.0 * g.cores, 0.85 * g.memory_mib,
                           0.85 * g.network_mbps}});
    }
  }

  sim::Rng rng(2014);
  TaskId next = 0;
  TopologyId id = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Shape* shape : {&throughput, &word_count, &log_stream}) {
      in.topologies.push_back({id, shape->workers});
      std::vector<std::vector<TaskId>> tasks;
      for (const Component& c : shape->components) {
        tasks.emplace_back();
        for (int i = 0; i < c.tasks; ++i) {
          tasks.back().push_back(next);
          in.executors.push_back(
              {next++, id,
               {rng.uniform(0.1, 1.0) * c.max_cpu, rng.uniform(10.0, 200.0),
                rng.uniform(0.1, 20.0)}});
        }
      }
      std::vector<TaskId> ackers;
      for (int i = 0; i < kAckers; ++i) {
        ackers.push_back(next);
        in.executors.push_back({next++, id,
                                {rng.uniform(20.0, 80.0),
                                 rng.uniform(5.0, 50.0),
                                 rng.uniform(0.1, 2.0)}});
      }
      for (std::size_t c = 0; c < shape->components.size(); ++c) {
        const int source = shape->components[c].source;
        for (TaskId t : tasks[c]) {
          if (source >= 0) {
            for (TaskId s : tasks[static_cast<std::size_t>(source)]) {
              in.traffic.push_back(
                  {s, t, shape->rate * rng.uniform(0.5, 1.5)});
              in.topology_edges.emplace_back(s, t);
            }
          }
          // Acks go to every acker (root ids hash across them); completions
          // come back to the spouts.
          for (TaskId a : ackers) {
            in.traffic.push_back({t, a, rng.uniform(1.0, 10.0)});
            if (source < 0) {
              in.traffic.push_back({a, t, rng.uniform(1.0, 5.0)});
            }
          }
        }
      }
      ++id;
    }
  }
  return in;
}

struct NamedInput {
  std::string name;
  SchedulerInput input;
};

/// The fleet input with one runtime shape changed each. Together they reach
/// the schedulers' slot-eligibility rule and every rung of their relaxation
/// ladders, which the other inputs leave out.
std::vector<NamedInput> fleet_variants() {
  std::vector<NamedInput> out;
  {
    // A topology outside the run holds port 0 of every even node and port
    // 1 of the 8-slot nodes: 24 tasks dealt over 14 slots, so slots repeat
    // in the list as they do in Cluster::scheduler_input.
    SchedulerInput in = fleet_input();
    std::vector<SlotIndex> held;
    for (const SlotSpec& s : in.slots) {
      if ((s.port == 0 && s.node % 2 == 0) || (s.port == 1 && s.node < 4)) {
        held.push_back(s.slot);
      }
    }
    for (std::size_t task = 0; task < 24; ++task) {
      in.occupied_slots.push_back(held[task % held.size()]);
    }
    out.push_back({"fleet212-occupied", std::move(in)});
  }
  {
    // Node 5 has failed: it keeps its id with zero capacity but offers no
    // slots, so K is still 20. At gamma 1 the limit is ceil(212 / 20) = 11
    // and the 19 live nodes hold 209 executors within it: three must go
    // through the count-relaxed rung.
    SchedulerInput in = fleet_input();
    in.gamma = 1.0;
    std::erase_if(in.slots, [](const SlotSpec& s) { return s.node == 5; });
    in.nodes[5].capacity = {};
    out.push_back({"fleet212-failed-node", std::move(in)});
  }
  {
    // Queue pressure at the weight bench/ablation_resource_aware runs with.
    SchedulerInput in = fleet_input();
    sim::Rng rng(25);
    for (ExecutorSpec& e : in.executors) e.queue_depth = rng.uniform(0.0, 8.0);
    in.queue_pressure_weight = 25.0;
    out.push_back({"fleet212-queue-pressure", std::move(in)});
  }
  {
    // 30 % of the CPU: less than the total demand, memory still ample.
    SchedulerInput in = fleet_input();
    for (NodeSpec& n : in.nodes) n.capacity[kCpuMhz] *= 0.3;
    out.push_back({"fleet212-cpu-tight", std::move(in)});
  }
  {
    // 6 % of the memory: less than the total demand.
    SchedulerInput in = fleet_input();
    for (NodeSpec& n : in.nodes) n.capacity[kMemoryMib] *= 0.06;
    out.push_back({"fleet212-memory-tight", std::move(in)});
  }
  return out;
}

/// The sweep's 49 inputs in make_cases() order, the fleet input, then its
/// variants.
std::vector<NamedInput> corpus() {
  std::vector<NamedInput> out;
  for (const SweepCase& c : make_cases()) {
    out.push_back({input_name(c), build_input(c)});
  }
  out.push_back({"fleet212", fleet_input()});
  for (NamedInput& v : fleet_variants()) out.push_back(std::move(v));
  return out;
}

// clang-format off
const std::map<std::string, std::vector<std::uint64_t>> kGolden = {
    {"aniello-offline",
     {0x0c8210784d8af5a5, 0xb15c6863bfaa01ad, 0xa9ce831712f41f05,
      0x3e436f07d64d7de2, 0xe348e32be8bc1925, 0x9407e2f9b5e47db1,
      0x30a435690d4235a5, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x54f69482b2c28c2d, 0x463705f3052cf626, 0x95da5ba9fb4d8f25,
      0xe910d8a45a6164d1, 0x30a435690d4235a5, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xa9ce831712f41f05, 0x394f2368d0936b81,
      0x0293ccda56647aa5, 0x102e2022e9853e02, 0xffebbebc258c4ca5,
      0x0c8210784d8af5a5, 0xb15c6863bfaa01ad, 0x2b76ab44623fc605,
      0xd35d1338afed4c6a, 0x006731d87415dd65, 0x067a54e29f5a1fe5,
      0x80b856c6dd79b145, 0x0c8210784d8af5a5, 0xb15c6863bfaa01ad,
      0x43eaa84c7b702b26, 0xd15a43561dbf4889, 0x31bab80ce0d95ce5,
      0x7712cd8512e648d1, 0x30a435690d4235a5, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xa34915265291f762, 0x3e436f07d64d7de2,
      0x9349f011e5b493e5, 0x602615d110caa481, 0x30a435690d4235a5,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0x7d33700b314de4e5,
      0x868367d494817a09, 0xcf26729a33876165, 0x398e6025ba55936d,
      0x30a435690d4235a5, 0xb9fa7de4b77ba904, 0x4b2c10ee3c298838,
      0xbdf5b2b2bb3e7a85, 0xb9fa7de4b77ba904, 0xd8f544edc26af325,
      0xd8f544edc26af325}},
    {"aniello-online",
     {0x0c8210784d8af5a5, 0x8697e7faacd1f74c, 0x3fc5793fcdb5b345,
      0x319e58192c7c8568, 0x4e70068b4188d096, 0xb60800e9a7c80b54,
      0x36eb4da5c883de25, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x59d728fb9456da42, 0xaa2d0c24c4c86bc3, 0xc319503c025b6118,
      0xba5dd65aa72412e2, 0x30a435690d4235a5, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0x5f992ca62fe0be60, 0xc56da3ab6dd23907,
      0x7b7a34eadc4bef8f, 0xe6962e163ae63e95, 0x40bb78bbb60a88a5,
      0x0c8210784d8af5a5, 0x8697e7faacd1f74c, 0x1e466964dd117985,
      0x2621b2670e0ec04b, 0x45f857899e8b32e5, 0x968fabd8ea4ddf9c,
      0x80b856c6dd79b145, 0x0c8210784d8af5a5, 0xc427c209b443e1ad,
      0xa93860d80dcf5947, 0xd15a43561dbf4889, 0xfe47f0c3340484ca,
      0x7cecc9549dd03f41, 0x30a435690d4235a5, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0x976c282f333e1101, 0xb62046f27cc675aa,
      0xff486468b5dea365, 0x1311236a6aac350b, 0x36eb4da5c883de25,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0x31187a133113948d,
      0xc88600f8c045a9e8, 0x659bbbd045cbcb59, 0x51a1109f1c962969,
      0x36eb4da5c883de25, 0x0d13b6aac30d9af5, 0xa1ccf58e0568063f,
      0x56ab6699e455f100, 0x0d13b6aac30d9af5, 0xee18efa1b81e50d4,
      0xee18efa1b81e50d4}},
    {"local-search",
     {0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0x3ec9571dc709cec5,
      0xdf41234509716069, 0x76dd115ce388b984, 0x080fdd1efda71ad5,
      0x47b9f4a0b343aa07, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x9daf6065d8cfe245, 0xb13bc7b27dc32729, 0x01584327e8d68584,
      0x63efba578d05f156, 0x6ed34e273e8acdc7, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0x1491754ea584f8c5, 0x38864aabd04b24e9,
      0x3c35aba9cbf1fbe7, 0x50977f81bdfda53d, 0xac607f4f40cbe207,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xbaecebb486f44ec5,
      0xa8d02f69ba1f2b29, 0xf8148d696b2eaba7, 0x889b9e1841d31e7c,
      0xdd7a6e331f170a87, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x1491754ea584f8c5, 0x5f777c0605750369, 0x24e8d77f2c433786,
      0x227a96efda8e22f5, 0x7780b7a9683c0187, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xdcdf48c2d32bec45, 0xbcc644c9e391bba9,
      0x2c71298f834c6be5, 0xae86f2f9f2e6d756, 0x47b9f4a0b343aa07,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0x82d13656914c77c5,
      0x8e10d5e250297ca9, 0x244f8911d94821a5, 0x0a3f242079c87b9e,
      0x47b9f4a0b343aa07, 0x1557145d2f1de226, 0xbf5b796c9cd610b9,
      0x1a3923eb3d7eed4d, 0x0ca2790c0e161e82, 0xa0c112ccf2c570fd,
      0xf2aaebc1a1abbdb9}},
    {"round-robin",
     {0x0c8210784d8af5a5, 0x068a4ec169c9ca2d, 0xbdab44712a33e345,
      0xc12db2556d516c69, 0xcde2c9454220f7e5, 0x12c286f3132627dd,
      0xc58dd5f7ecbd5a27, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0xcd9269e952dd3603, 0xab6aab672100c320, 0x50ff019f295b7fa5,
      0xa9cd8866d9363a0e, 0x0319eb0e9d497d65, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xbdab44712a33e345, 0x358d952f09ca2a99,
      0x1baad991a9a79fef, 0x92bdb54dd9b98dfe, 0x1e0e90bd5ded9fa6,
      0x0c8210784d8af5a5, 0x068a4ec169c9ca2d, 0xaa6bc3c6698e9165,
      0x1b15a01efeb72889, 0x87f045f168ce0fa5, 0x5c50e6b3384309c9,
      0x1e0e90bd5ded9fa6, 0x0c8210784d8af5a5, 0x068a4ec169c9ca2d,
      0xcfe7f6d7c35e2426, 0xd15a43561dbf4889, 0xdc141071990aed25,
      0xbea3aa6266d35511, 0xc58dd5f7ecbd5a27, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xd16410970d6e79e2, 0xc12db2556d516c69,
      0x272adbd025ae8a55, 0x5b527bf94d1b64fc, 0xc58dd5f7ecbd5a27,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xbdab44712a33e345,
      0x456deb067659bc89, 0x0f5d651ff5c4aac6, 0xc4bbb3725dff91ee,
      0x0319eb0e9d497d65, 0xa0222ad1e5357bf9, 0xc4ccf1db83803032,
      0xe933c59a24534eb1, 0x56fd0b57c2025ab9, 0x812763c8da4631d8,
      0x812763c8da4631d8}},
    {"rstorm",
     {0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xf69d56f26cda9da6,
      0xd15a43561dbf4889, 0x46c74849581cfb65, 0x44ac5ec8672917e5,
      0xa31fb54844ac3e64, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0xf69d56f26cda9da6, 0xd15a43561dbf4889, 0x46c74849581cfb65,
      0x44ac5ec8672917e5, 0xa31fb54844ac3e64, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xf69d56f26cda9da6, 0xd15a43561dbf4889,
      0x46c74849581cfb65, 0x44ac5ec8672917e5, 0x93087465af7d9ee4,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xf69d56f26cda9da6,
      0xd15a43561dbf4889, 0x46c74849581cfb65, 0x44ac5ec8672917e5,
      0xa31fb54844ac3e64, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0xf69d56f26cda9da6, 0xd15a43561dbf4889, 0x46c74849581cfb65,
      0x44ac5ec8672917e5, 0x93087465af7d9ee4, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xf69d56f26cda9da6, 0xd15a43561dbf4889,
      0x46c74849581cfb65, 0x44ac5ec8672917e5, 0x93087465af7d9ee4,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xf69d56f26cda9da6,
      0xd15a43561dbf4889, 0x46c74849581cfb65, 0x44ac5ec8672917e5,
      0xa31fb54844ac3e64, 0xa625dbab42affa3c, 0x3ecdfa0d382ff3fe,
      0x948d9abe39d312d6, 0x2830c372e5c0a698, 0x5d33a1942022d4dd,
      0x815fa5594cddaab8}},
    {"traffic-aware",
     {0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xcfd201ada8698585,
      0x36d1dcb3552a3ae9, 0xcbbcc6f3a578a2c4, 0x7dd4642b247944ad,
      0x47b9f4a0b343aa07, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x475d708314c274c5, 0x920ba44dfc82a669, 0x2a38a2a9fda2c7c4,
      0x5788c50b7b4501ef, 0x6ed34e273e8acdc7, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0x1491754ea584f8c5, 0x713b5944efce9ce9,
      0x88c7d9c2c75102e7, 0xd6c466c27198a00e, 0xac607f4f40cbe207,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xd47cbf9d3f1146c5,
      0x625834cd9a09d3e9, 0xa9426d99b6abdea7, 0xd2cfbcc6c90e37ad,
      0xdd7a6e331f170a87, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0x9c71e590d6629e05, 0x9b19523e8b96ee29, 0xef8c62fab8e245c6,
      0x89c9bfc4a5c4d76d, 0x7780b7a9683c0187, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xdcdf48c2d32bec45, 0xfa0f06a3e7e9a7a9,
      0x503324e3c2db6d65, 0xafabb28d3861d5cc, 0x47b9f4a0b343aa07,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xfdbaa73faa0eedc5,
      0x5bbb77f0be18d0e9, 0x3aa1b2d878a0a765, 0x60131522a6c01aaf,
      0x47b9f4a0b343aa07, 0xa7dce2cd20dd0246, 0x82ed8fa7a14a7d42,
      0x94d5ec81248f4804, 0xa7dce2cd20dd0246, 0xbd3e9463a7db787d,
      0x62effca2c0c5d21f}},
    {"tstorm-initial",
     {0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xbdab44712a33e345,
      0x358d952f09ca2a99, 0x66f23ddc8cc624a5, 0x6f4ce1c94b62a5c5,
      0x0319eb0e9d497d65, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0xa995f55c96d58a20, 0x358d952f09ca2a99, 0xf49ba723c99e5a25,
      0x4e06a754bf324a86, 0x0319eb0e9d497d65, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xbdab44712a33e345, 0x358d952f09ca2a99,
      0x71e7e9175a64b8e1, 0x6017b89427e559b6, 0x1e0e90bd5ded9fa6,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0x2c9d020f4a9b9ec1,
      0x1b15a01efeb72889, 0x16c00fbeb434bf86, 0x707867dec05c7fd6,
      0x1e0e90bd5ded9fa6, 0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad,
      0xc226c1b2ec038785, 0xd15a43561dbf4889, 0x20c42d5d07df764f,
      0xe8263744ff2fe7dc, 0x0319eb0e9d497d65, 0x0c8210784d8af5a5,
      0xe0bf880d01c1e1ad, 0xa55a83dd635ad1e0, 0x358d952f09ca2a99,
      0x41894242f1bee925, 0xcfc7c3c5b91f1b65, 0x0319eb0e9d497d65,
      0x0c8210784d8af5a5, 0xe0bf880d01c1e1ad, 0xbdab44712a33e345,
      0x456deb067659bc89, 0xa4d2331004095f25, 0x1fae920aa1deb147,
      0x0319eb0e9d497d65, 0x7f828e29319be20d, 0x55e53d104dfb888e,
      0x673f8cc46240bb21, 0x23257e253a8def8d, 0x6087c72026ac97ec,
      0x6087c72026ac97ec}},
};
// clang-format on

TEST(PlacementGolden, EveryAlgorithmReproducesItsRecordedPlacements) {
  const std::vector<NamedInput> inputs = corpus();
  auto& registry = AlgorithmRegistry::instance();
  std::vector<std::string> golden_names;
  for (const auto& [name, hashes] : kGolden) golden_names.push_back(name);
  std::vector<std::string> registered = registry.names();
  std::sort(registered.begin(), registered.end());
  EXPECT_EQ(registered, golden_names) << "every registered algorithm has a "
                                         "golden row, and only those";

  std::string table;
  bool all_match = true;
  for (const std::string& name : registered) {
    const auto golden = kGolden.find(name);
    char line[64];
    table += "    {\"" + name + "\",\n     {";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const ScheduleResult r = registry.create(name)->schedule(inputs[i].input);
      const std::uint64_t h = placement_hash(r);
      std::snprintf(line, sizeof line, "0x%016" PRIx64 "%s", h,
                    i + 1 == inputs.size() ? "" : ",");
      table += line;
      if (i + 1 < inputs.size()) table += (i % 3 == 2) ? "\n      " : " ";
      const bool known = golden != kGolden.end() && i < golden->second.size();
      if (!known || golden->second[i] != h) {
        all_match = false;
        ADD_FAILURE() << name << " on " << inputs[i].name << ": hash "
                      << std::hex << h << std::dec << ", count_relaxed "
                      << r.count_relaxed << ", capacity_relaxed "
                      << r.capacity_relaxed << ", " << r.assignment.size()
                      << " placed";
      }
    }
    table += "}},\n";
  }
  if (!all_match) std::printf("Actual placements:\n%s", table.c_str());
}

TEST(PlacementGolden, FleetVariantsReachTheRelaxationRungs) {
  std::map<std::string, SchedulerInput> variants;
  for (NamedInput& v : fleet_variants()) {
    variants.emplace(v.name, std::move(v.input));
  }
  auto& registry = AlgorithmRegistry::instance();
  const auto run = [&](const std::string& alg, const std::string& input) {
    return registry.create(alg)->schedule(variants.at(input));
  };
  const ScheduleResult failed = run("traffic-aware", "fleet212-failed-node");
  EXPECT_TRUE(failed.count_relaxed);
  EXPECT_FALSE(failed.capacity_relaxed);
  EXPECT_TRUE(run("traffic-aware", "fleet212-cpu-tight").capacity_relaxed);
  EXPECT_TRUE(run("traffic-aware", "fleet212-memory-tight").capacity_relaxed);
  EXPECT_TRUE(run("rstorm", "fleet212-cpu-tight").capacity_relaxed);
  EXPECT_TRUE(run("rstorm", "fleet212-memory-tight").capacity_relaxed);

  // Memory cannot fit anywhere for some executor: R-Storm's memory rung.
  const SchedulerInput& tight = variants.at("fleet212-memory-tight");
  double demand = 0;
  double capacity = 0;
  for (const ExecutorSpec& e : tight.executors) demand += e.demand[kMemoryMib];
  for (const NodeSpec& n : tight.nodes) capacity += n.capacity[kMemoryMib];
  EXPECT_GT(demand, capacity);
}

TEST(PlacementGolden, FleetInputIsShapedLikeTheOnlineWorkload) {
  const SchedulerInput in = fleet_input();
  EXPECT_EQ(in.executors.size(), 212u);
  EXPECT_EQ(in.slots.size(), 88u);
  EXPECT_EQ(in.nodes.size(), 20u);
  EXPECT_EQ(in.topologies.size(), 6u);
}

}  // namespace
}  // namespace tstorm::sched
