#include "fleet/control.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace janus {

EpochFeed::EpochFeed(std::size_t stages, bool live) : live_(live) {
  static const CoLocationDistribution kDefault;
  per_stage_.assign(stages, &kDefault);
}

void EpochFeed::set_stage(std::size_t stage,
                          const CoLocationDistribution& dist) {
  require(stage < per_stage_.size(),
          "epoch feed does not cover this chain stage");
  per_stage_[stage] = &dist;
}

ControlPlane::ControlPlane(ClusterConfig cluster, ControlConfig config)
    : cluster_(cluster), config_(config) {
  require(config.epoch_s > 0.0, "epoch length must be > 0 (or kNoEpochs)");
}

EpochFeed& ControlPlane::plan_tenant(const StagePlan* stages,
                                     std::size_t count) {
  require(count > 0, "tenant needs >= 1 chain stage");
  const int first = cluster_.add_group(stages[0].pods, stages[0].pod_mc);
  for (std::size_t s = 1; s < count; ++s) {
    require(cluster_.add_group(stages[s].pods, stages[s].pod_mc) ==
                first + static_cast<int>(s),
            "a tenant's cluster groups must have consecutive ids");
  }
  first_group_.push_back(first);
  feeds_.emplace_back(count, live());
  broadcast(first_group_.size() - 1);
  return feeds_.back();
}

EpochFeed& ControlPlane::plan_tenant(const std::vector<int>& stage_pods,
                                     const std::vector<Millicores>& stage_mc) {
  require(stage_pods.size() == stage_mc.size(),
          "plan needs one pod size per chain stage");
  std::vector<StagePlan> stages(stage_pods.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    stages[s] = StagePlan{stage_mc[s], stage_pods[s]};
  }
  return plan_tenant(stages.data(), stages.size());
}

void ControlPlane::broadcast(std::size_t tenant) {
  EpochFeed& feed = feeds_[tenant];
  for (std::size_t s = 0; s < feed.stages(); ++s) {
    feed.set_stage(s, concentrated(cluster_.group_coresidency(
                          tenant_group(tenant, s))));
  }
}

const CoLocationDistribution& ControlPlane::concentrated(double mean) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &mean, sizeof bits);
  auto [it, fresh] = concentrated_.try_emplace(bits);
  if (fresh) it->second = CoLocationDistribution::concentrated(mean);
  return it->second;
}

ClusterCapacity::RemoveOutcome ControlPlane::inject_node_failure(int node) {
  const ClusterCapacity::RemoveOutcome out = cluster_.fail_node(node);
  // Rebroadcast immediately: the failure just concentrated surviving pods,
  // and the feeds must reflect that even if no reconcile follows (tests
  // drive this standalone; run_fleet reconciles right after anyway).
  for (std::size_t t = 0; t < tenants(); ++t) broadcast(t);
  return out;
}

void ControlPlane::reconcile(Seconds sim_time,
                             const std::vector<std::vector<int>>& observed,
                             const EpochChaos& chaos) {
  require(live(), "reconcile needs a finite epoch length");
  require(observed.size() == tenants(),
          "reconcile needs one observation row per tenant");
  EpochSnapshot snap;
  snap.epoch = static_cast<int>(history_.size());
  snap.sim_time = sim_time;
  snap.chaos = chaos;
  // Merge in tenant-index order — the fixed fold that keeps the packing a
  // pure function of (epoch, fleet seed, tenant set) at any shard count.
  for (std::size_t t = 0; t < tenants(); ++t) {
    require(observed[t].size() == feeds_[t].stages(),
            "reconcile needs one observation per tenant stage");
    for (std::size_t s = 0; s < observed[t].size(); ++s) {
      // An idle stage still keeps one warm pod; demand never drops to 0.
      const int want = std::max(1, observed[t][s]);
      const int group = tenant_group(t, s);
      if (want != static_cast<int>(cluster_.assignment(group).size())) {
        cluster_.resize_group(group, want);
        ++snap.groups_resized;
      }
    }
  }
  const ClusterCapacity::ScaleEvent event =
      cluster_.autoscale_step(config_.autoscale);
  snap.nodes_ordered = event.ordered;
  snap.nodes_added = event.added;
  snap.nodes_removed = event.removed;
  snap.displaced_pods = event.displaced_pods;
  snap.nodes = cluster_.nodes();
  snap.pending_nodes = cluster_.pending_nodes();
  snap.utilization = cluster_.utilization();
  // Broadcast the post-repack co-residency (scale-in may have moved pods).
  for (std::size_t t = 0; t < tenants(); ++t) broadcast(t);
  log_debug("control: epoch ", snap.epoch, " @", sim_time, "s: ",
            snap.groups_resized, " groups resized, nodes=", snap.nodes, " (+",
            snap.nodes_added, "/-", snap.nodes_removed, ", ",
            snap.nodes_ordered, " ordered, ", snap.displaced_pods,
            " pods displaced), utilization=", snap.utilization);
  history_.push_back(snap);
}

int ControlPlane::tenant_group(std::size_t tenant, std::size_t stage) const {
  require(tenant < tenants(), "tenant index out of range");
  require(stage < feeds_[tenant].stages(), "stage index out of range");
  return first_group_[tenant] + static_cast<int>(stage);
}

double ControlPlane::tenant_coresidency(std::size_t tenant) const {
  require(tenant < tenants(), "tenant index out of range");
  const std::size_t stages = feeds_[tenant].stages();
  double total = 0.0;
  for (std::size_t s = 0; s < stages; ++s) {
    // Reporting matches the plan-time convention: a pod is co-resident at
    // least with itself, so an empty (idle) stage reads as 1.
    total += std::max(1.0, cluster_.group_coresidency(tenant_group(tenant, s)));
  }
  return total / static_cast<double>(stages);
}

}  // namespace janus
