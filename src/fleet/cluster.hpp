// Shared cluster capacity for the fleet simulator: an autoscaling node
// pool with tracked pod groups.
//
// Each (tenant, stage) is one *group* of identically sized pods.  Packing
// mirrors Platform::place: pods of one group prefer the node already
// hosting the most pods of that group — commercial platforms pack
// same-function instances together — which is exactly what creates the
// co-location interference of Fig 1c.  The per-group co-residency feeds
// back into InterferenceModel through CoLocationDistribution::concentrated,
// so tenants contend through the placement rather than through an
// exogenous knob.
//
// The pool is *mutable*: the fleet's control plane resizes groups to the
// pod counts its Platforms actually ran each epoch, and autoscale_step
// grows or shrinks the node pool toward a utilization band.  Scale-out
// pays a configurable latency (nodes ordered now become usable epochs
// later); scale-in removes the emptiest nodes and deterministically
// re-packs the displaced pods.  Every operation is a pure function of the
// call sequence (no randomness, no hidden state), so fleet results stay
// bit-identical at any shard count; the plan-once pipeline is simply the
// sequence "add every group, never step".
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace janus {

struct ClusterConfig {
  int nodes = 16;
  Millicores node_capacity_mc = 52000;  // testbed: 52 physical cores
};

/// Utilization-band autoscaler knobs (consumed by autoscale_step; the pool
/// itself stays policy-free).
struct AutoscaleConfig {
  bool enabled = false;
  /// Grow when allocated/capacity exceeds this...
  double scale_out_utilization = 0.70;
  /// ...shrink when it falls below this (the gap is the hysteresis band).
  double scale_in_utilization = 0.30;
  int min_nodes = 1;
  int max_nodes = 1024;
  /// Most nodes added or removed in one step.
  int max_step_nodes = 4;
  /// Steps between ordering a node and it becoming usable (0 = instant).
  int scale_out_latency_epochs = 1;
};

class ClusterCapacity {
 public:
  explicit ClusterCapacity(ClusterConfig config);

  /// Usable nodes (pending scale-out orders not included).
  int nodes() const noexcept { return static_cast<int>(used_.size()); }
  /// Nodes ordered but still inside the scale-out latency window.
  int pending_nodes() const noexcept;
  Millicores node_capacity_mc() const noexcept {
    return config_.node_capacity_mc;
  }
  Millicores used_mc(int node) const;
  /// Total allocated / total capacity (can exceed 1 when overcommitted;
  /// defined as 0 when every node is gone).
  double utilization() const;
  /// Pods placed past a node's capacity so far (cumulative event count).
  int overcommitted_pods() const noexcept { return overcommitted_; }
  /// Pods that could not be placed anywhere (no node left) so far — the
  /// graceful degradation counter for node-failure chaos; such pods are
  /// dropped from their group, never an assert.
  int stranded_pods() const noexcept { return stranded_; }

  /// Places `count` pods of a new group (one tenant function), each of
  /// `pod_mc` millicores, and returns the group id.  Each pod goes to the
  /// node already hosting the most pods of this group that still has room;
  /// when no node has room the least-used node takes it anyway (overcommit
  /// — the simulator models CPU-share dilution through interference rather
  /// than rejecting pods).  `count` may be 0: the group exists, empty.
  int add_group(int count, Millicores pod_mc);

  /// One-shot convenience: add_group + a copy of its node assignment
  /// (kept for the plan-time path, tests, and benches).
  std::vector<int> place_group(int count, Millicores pod_mc);

  int group_count() const noexcept { return static_cast<int>(groups_.size()); }
  /// Node index per pod of the group, in placement order.
  const std::vector<int>& assignment(int group) const;
  /// Millicores per pod of the group (fixed at add_group; resize keeps it).
  /// Pod sizes vary per group now that tenant sizing policies allocate
  /// stages heterogeneously.
  Millicores group_pod_mc(int group) const;
  /// Mean same-group co-residency of the group's current placement.
  double group_coresidency(int group) const;

  /// Grows or shrinks a group to `count` pods.  Growth places the extra
  /// pods with the standard packing; shrinkage releases pods from the
  /// nodes where the group is thinnest first (spills unwind before the
  /// packed core breaks up).  No-op when the count already matches.
  void resize_group(int group, int count);

  /// What one autoscale step did (all zeros when autoscaling is disabled
  /// or the utilization sat inside the band).
  struct ScaleEvent {
    int ordered = 0;    // nodes ordered this step (usable after latency)
    int added = 0;      // nodes that became usable this step
    int removed = 0;    // nodes scaled in this step
    int displaced_pods = 0;  // pods re-packed because their node went away
  };

  /// One deterministic autoscaling step: matures pending scale-out orders,
  /// then grows toward `scale_out_utilization` or shrinks while below
  /// `scale_in_utilization` (emptiest node first, ties to the highest
  /// index; displaced groups re-pack in group-id order).
  ScaleEvent autoscale_step(const AutoscaleConfig& cfg);

  /// What one node removal did to the pods it hosted.
  struct RemoveOutcome {
    int displaced = 0;  // pods evicted and re-packed on surviving nodes
    int stranded = 0;   // pods dropped because no node could take them
  };

  /// Removes node `victim` outright (chaos node failure): evicts its pods
  /// group by group in id order, renumbers the surviving assignments, and
  /// re-packs the displaced pods with the standard packing — also in
  /// group-id order, so the outcome is a pure function of the call
  /// sequence.  Removing a node that hosts only zero-pod groups (or no
  /// groups) is a plain retirement.  When no node survives, the evicted
  /// pods are stranded (counted, dropped from their groups) rather than
  /// asserting.
  RemoveOutcome fail_node(int victim);

  /// Mean same-group co-residency of a placement: the average, over pods,
  /// of how many of the group's pods share that pod's node.  An empty
  /// placement has no pods co-resident with anything: 0.
  static double mean_coresidency(const std::vector<int>& assignment);

 private:
  struct Group {
    Millicores pod_mc = 0;
    std::vector<int> nodes;  // node index per pod
  };

  /// Packs up to `count` more pods of `group` (the add_group / grow rule);
  /// returns how many were actually placed.  With zero nodes left nothing
  /// can be placed: the shortfall is counted in stranded_ and the group
  /// simply stays smaller — degraded capacity, not a crash.
  int pack_pods(Group& group, int count);
  /// Releases `count` pods of `group`, thinnest nodes first.
  void release_pods(Group& group, int count);
  /// Scales in one node (emptiest, ties to the highest index); returns how
  /// many pods it displaced (re-packed).
  int remove_one_node();
  /// The group placement `nodes` counted per node, in the scratch buffer.
  std::vector<int>& count_per_node(const std::vector<int>& nodes) const;
  /// Zeroes the scratch entries count_per_node set for `nodes` (which may
  /// have changed since, as long as the counts were kept in step).
  void clear_per_node(const std::vector<int>& nodes) const;
  /// Mean co-residency of `assignment` given its per-node pod counts.
  static double coresidency(const std::vector<int>& assignment,
                            const std::vector<int>& per_node);

  ClusterConfig config_;
  std::vector<Millicores> used_;
  /// A deque: a fleet adds one group per tenant stage, and vector growth
  /// would keep up to half its capacity resident at 100k tenants.
  std::deque<Group> groups_;
  /// Pending scale-out orders: {steps remaining, node count}.
  std::vector<std::pair<int, int>> orders_;
  int overcommitted_ = 0;
  int stranded_ = 0;
  /// Per-node pod counts of the group being packed, released or measured;
  /// all zeros between calls, so no call allocates a per-node vector.
  /// Const queries write it too: a ClusterCapacity serves one thread at a
  /// time, reads included.
  mutable std::vector<int> scratch_;
};

}  // namespace janus
