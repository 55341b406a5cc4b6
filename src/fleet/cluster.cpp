#include "fleet/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/log.hpp"

namespace janus {

ClusterCapacity::ClusterCapacity(ClusterConfig config) : config_(config) {
  require(config.nodes > 0, "cluster needs >= 1 node");
  require(config.node_capacity_mc > 0, "node capacity must be > 0");
  used_.assign(static_cast<std::size_t>(config.nodes), 0);
}

int ClusterCapacity::pending_nodes() const noexcept {
  int total = 0;
  for (const auto& order : orders_) total += order.second;
  return total;
}

Millicores ClusterCapacity::used_mc(int node) const {
  require(node >= 0 && static_cast<std::size_t>(node) < used_.size(),
          "node index out of range");
  return used_[static_cast<std::size_t>(node)];
}

double ClusterCapacity::utilization() const {
  // Every node failed: nothing is allocatable, report 0 rather than 0/0.
  if (used_.empty()) return 0.0;
  double total = 0.0;
  for (Millicores u : used_) total += static_cast<double>(u);
  return total / (static_cast<double>(config_.node_capacity_mc) *
                  static_cast<double>(used_.size()));
}

std::vector<int>& ClusterCapacity::count_per_node(
    const std::vector<int>& nodes) const {
  if (scratch_.size() < used_.size()) scratch_.resize(used_.size(), 0);
  for (int n : nodes) ++scratch_[static_cast<std::size_t>(n)];
  return scratch_;
}

void ClusterCapacity::clear_per_node(const std::vector<int>& nodes) const {
  for (int n : nodes) scratch_[static_cast<std::size_t>(n)] = 0;
}

int ClusterCapacity::pack_pods(Group& group, int count) {
  if (count > 0 && used_.empty()) {
    // No node survives (chaos can fail the last one): the pods are
    // stranded — counted and dropped, never an assert.  The overcommit
    // fallback below needs a node to fall back on, so this comes first.
    stranded_ += count;
    log_warn("cluster: ", count, " pods stranded (no nodes left)");
    return 0;
  }
  const Millicores pod_mc = group.pod_mc;
  // This group's pods per node, from its current placement.
  std::vector<int>& per_node = count_per_node(group.nodes);
  const auto place = [&](std::size_t node) {
    used_[node] += pod_mc;
    ++per_node[node];
    group.nodes.push_back(static_cast<int>(node));
  };
  int p = 0;
  for (; p < count; ++p) {
    int best = -1;
    for (std::size_t n = 0; n < used_.size(); ++n) {
      if (used_[n] + pod_mc > config_.node_capacity_mc) continue;
      // Pack with the group's own pods first; among group-free nodes pick
      // the emptiest, so distinct groups only share once capacity forces
      // them to (contention comes from load, not from tie-breaking).
      if (best < 0 ||
          per_node[n] > per_node[static_cast<std::size_t>(best)] ||
          (per_node[n] == per_node[static_cast<std::size_t>(best)] &&
           used_[n] < used_[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(n);
      }
    }
    if (best < 0) break;
    place(static_cast<std::size_t>(best));
  }
  // Saturated: no node has room for a pod of this size, and placing only
  // adds load, so every remaining pod overcommits the least-used node,
  // ties to the lowest index — the minimum of (used << 32 | index).
  for (; p < count; ++p) {
    std::uint64_t least = ~std::uint64_t{0};
    for (std::size_t n = 0; n < used_.size(); ++n) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(used_[n]) << 32) | std::uint64_t{n};
      least = std::min(least, key);
    }
    place(static_cast<std::size_t>(least & 0xffffffffu));
    ++overcommitted_;
  }
  clear_per_node(group.nodes);
  return count;
}

void ClusterCapacity::release_pods(Group& group, int count) {
  std::vector<int>& per_node = count_per_node(group.nodes);
  for (int p = 0; p < count; ++p) {
    // Release from the node where the group is thinnest (spills unwind
    // before the packed core), ties to the highest index.
    int victim = -1;
    for (std::size_t n = 0; n < used_.size(); ++n) {
      if (per_node[n] == 0) continue;
      if (victim < 0 ||
          per_node[n] <= per_node[static_cast<std::size_t>(victim)]) {
        victim = static_cast<int>(n);
      }
    }
    require(victim >= 0, "release_pods: group has no pods left");
    used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
    --per_node[static_cast<std::size_t>(victim)];
    // Drop the last placement entry on that node, keeping earlier order.
    for (std::size_t i = group.nodes.size(); i > 0; --i) {
      if (group.nodes[i - 1] == victim) {
        group.nodes.erase(group.nodes.begin() +
                          static_cast<std::ptrdiff_t>(i - 1));
        break;
      }
    }
  }
  clear_per_node(group.nodes);
}

int ClusterCapacity::add_group(int count, Millicores pod_mc) {
  require(count >= 0, "pod count must be >= 0");
  // A zero-pod group is legal (an idle stage); only a real placement
  // needs a real pod size.
  require(count == 0 || pod_mc > 0, "pod size must be > 0");
  Group& group = groups_.emplace_back();
  group.pod_mc = pod_mc;
  // Exact: packing never places more pods than asked.  resize_group growth
  // does not reserve, so live groups keep geometric growth.
  group.nodes.reserve(static_cast<std::size_t>(count));
  pack_pods(group, count);
  return static_cast<int>(groups_.size()) - 1;
}

std::vector<int> ClusterCapacity::place_group(int count, Millicores pod_mc) {
  return groups_[static_cast<std::size_t>(add_group(count, pod_mc))].nodes;
}

const std::vector<int>& ClusterCapacity::assignment(int group) const {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  return groups_[static_cast<std::size_t>(group)].nodes;
}

Millicores ClusterCapacity::group_pod_mc(int group) const {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  return groups_[static_cast<std::size_t>(group)].pod_mc;
}

double ClusterCapacity::group_coresidency(int group) const {
  const std::vector<int>& nodes = assignment(group);
  const double mean = coresidency(nodes, count_per_node(nodes));
  clear_per_node(nodes);
  return mean;
}

void ClusterCapacity::resize_group(int group, int count) {
  require(group >= 0 && static_cast<std::size_t>(group) < groups_.size(),
          "group id out of range");
  require(count >= 0, "pod count must be >= 0");
  Group& g = groups_[static_cast<std::size_t>(group)];
  const int current = static_cast<int>(g.nodes.size());
  if (count > current) {
    require(g.pod_mc > 0, "cannot grow a group placed with zero-size pods");
    pack_pods(g, count - current);
  } else if (count < current) {
    release_pods(g, current - count);
  }
}

ClusterCapacity::RemoveOutcome ClusterCapacity::fail_node(int victim) {
  require(victim >= 0 && static_cast<std::size_t>(victim) < used_.size(),
          "node index out of range");
  // Evict the victim's pods, group by group in id order.
  std::vector<int> displaced(groups_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    for (std::size_t i = group.nodes.size(); i > 0; --i) {
      if (group.nodes[i - 1] == victim) {
        group.nodes.erase(group.nodes.begin() +
                          static_cast<std::ptrdiff_t>(i - 1));
        used_[static_cast<std::size_t>(victim)] -= group.pod_mc;
        ++displaced[g];
      }
    }
  }
  // Retire the node and renumber every assignment past it.
  used_.erase(used_.begin() + victim);
  for (Group& group : groups_) {
    for (int& n : group.nodes) {
      if (n > victim) --n;
    }
  }
  // Re-pack the displaced pods, groups in id order — the deterministic
  // repacking shared by scale-in and chaos node failure.  pack_pods
  // strands what it cannot place (zero nodes left).
  RemoveOutcome out;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (displaced[g] == 0) continue;
    const int placed = pack_pods(groups_[g], displaced[g]);
    out.displaced += placed;
    out.stranded += displaced[g] - placed;
  }
  return out;
}

int ClusterCapacity::remove_one_node() {
  // Victim: the emptiest node, ties to the highest index (so renumbering
  // disturbs as few assignments as possible).
  int victim = 0;
  for (std::size_t n = 1; n < used_.size(); ++n) {
    if (used_[n] <= used_[static_cast<std::size_t>(victim)]) {
      victim = static_cast<int>(n);
    }
  }
  // Scale-in never removes the last node (autoscale min_nodes >= 1), so
  // the displaced pods always re-pack; stranding is a chaos-only outcome.
  const RemoveOutcome out = fail_node(victim);
  return out.displaced + out.stranded;
}

ClusterCapacity::ScaleEvent ClusterCapacity::autoscale_step(
    const AutoscaleConfig& cfg) {
  ScaleEvent event;
  // Mature pending orders first: a node ordered with latency L becomes
  // usable on the L-th step after the order.
  for (auto& order : orders_) --order.first;
  for (std::size_t i = 0; i < orders_.size();) {
    if (orders_[i].first <= 0) {
      used_.insert(used_.end(), static_cast<std::size_t>(orders_[i].second),
                   0);
      event.added += orders_[i].second;
      orders_.erase(orders_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (!cfg.enabled) return event;
  require(cfg.min_nodes >= 1 && cfg.max_nodes >= cfg.min_nodes,
          "autoscale node bounds must satisfy 1 <= min <= max");
  require(cfg.max_step_nodes >= 1, "autoscale step must be >= 1 node");
  require(cfg.scale_in_utilization < cfg.scale_out_utilization,
          "autoscale band must satisfy scale_in < scale_out");

  const double u = utilization();
  const int total = nodes() + pending_nodes();
  if (u > cfg.scale_out_utilization && total < cfg.max_nodes) {
    // Order enough nodes to bring allocation back to the target, counting
    // nodes already on order so back-to-back hot epochs don't double-buy.
    double used_total = 0.0;
    for (Millicores m : used_) used_total += static_cast<double>(m);
    const int want = static_cast<int>(
        std::ceil(used_total / (cfg.scale_out_utilization *
                                static_cast<double>(config_.node_capacity_mc))));
    const int deficit =
        std::min({want - total, cfg.max_step_nodes, cfg.max_nodes - total});
    if (deficit > 0) {
      if (cfg.scale_out_latency_epochs <= 0) {
        used_.insert(used_.end(), static_cast<std::size_t>(deficit), 0);
        event.added += deficit;
      } else {
        orders_.emplace_back(cfg.scale_out_latency_epochs, deficit);
        event.ordered = deficit;
      }
    }
  } else if (u < cfg.scale_in_utilization) {
    while (event.removed < cfg.max_step_nodes && nodes() > cfg.min_nodes &&
           utilization() < cfg.scale_in_utilization) {
      event.displaced_pods += remove_one_node();
      ++event.removed;
    }
  }
  if (event.ordered > 0 || event.added > 0 || event.removed > 0) {
    log_debug("cluster: autoscale ordered=", event.ordered,
              " added=", event.added, " removed=", event.removed,
              " displaced_pods=", event.displaced_pods, " nodes=", nodes(),
              " pending=", pending_nodes(), " utilization=", u);
  }
  return event;
}

double ClusterCapacity::coresidency(const std::vector<int>& assignment,
                                    const std::vector<int>& per_node) {
  if (assignment.empty()) return 0.0;
  double total = 0.0;
  for (int n : assignment) {
    total += static_cast<double>(per_node[static_cast<std::size_t>(n)]);
  }
  return total / static_cast<double>(assignment.size());
}

double ClusterCapacity::mean_coresidency(const std::vector<int>& assignment) {
  int max_node = 0;
  for (int n : assignment) max_node = n > max_node ? n : max_node;
  std::vector<int> per_node(static_cast<std::size_t>(max_node) + 1, 0);
  for (int n : assignment) ++per_node[static_cast<std::size_t>(n)];
  return coresidency(assignment, per_node);
}

}  // namespace janus
