// Deterministic chaos engine for the fleet simulator.
//
// Injects four failure families into a fleet run — node failures, pod
// preemption, cold-start storms, flash crowds — as a pure function of
// (fleet seed, epoch index, tenant set).  Nothing here reads wall clock,
// shard layout, or thread scheduling: every draw comes from an Rng keyed
// on the chaos root seed plus the epoch or tenant index alone, and every
// injection happens either at plan time (flash windows rewrite the
// tenant's ArrivalSpec before any shard thread exists) or at the global
// reconciliation barrier (failures, preemption, storms), where all shards
// are paused and the cluster state is itself a deterministic fold.  Chaos
// runs are therefore bit-identical at any shard count and across reruns;
// chaos disabled takes zero different branches from a run without the
// engine at all.
//
// The barrier families act through existing mechanisms rather than a
// parallel simulator path: node failures call ClusterCapacity::fail_node
// (displaced pods re-pack, the remainder strands), preemption calls
// Platform::preempt_busy (in-flight invocations re-queue and re-pay
// startup + execution), storms scale Platform's startup delays, and flash
// crowds are the ArrivalSpec time-warp window — so policies experience
// chaos exactly the way they experience ordinary load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fleet/arrivals.hpp"

namespace janus {

enum class ChaosFamily { NodeFailure, Preemption, ColdStorm, FlashCrowd };

const char* to_string(ChaosFamily family) noexcept;

struct ChaosConfig {
  // Which families are armed.  All off (the default) disables the engine.
  bool node_failures = false;
  bool preemption = false;
  bool cold_storms = false;
  bool flash_crowds = false;
  /// Mixed into the fleet seed so the same workload can face different
  /// chaos schedules (janus_cli --chaos-seed).
  std::uint64_t seed = 7;

  // --- Node failures (at barriers) ---
  /// Probability a node fails at any one barrier (at most one per barrier).
  double node_fail_per_epoch = 0.15;
  /// Never fail below this many nodes (0 allows losing the whole cluster,
  /// which strands every displaced pod).
  int min_nodes = 2;

  // --- Pod preemption (at barriers) ---
  /// Per-tenant probability of a preemption burst at any one barrier.
  double preempt_per_epoch = 0.30;
  /// Fraction of the victim tenant's busy pods killed per stage (ceil).
  double preempt_fraction = 0.5;

  // --- Cold-start storms (at barriers, lasting storm_epochs) ---
  /// Probability a storm starts at a barrier while none is active.
  double storm_per_epoch = 0.12;
  /// Startup-delay multiplier while the storm lasts (warm and cold).
  double storm_multiplier = 8.0;
  int storm_epochs = 2;

  // --- Flash crowds (plan time: one window per tenant) ---
  /// Arrival-rate multiplier inside the tenant's window.
  double flash_k = 6.0;
  /// Window start is drawn uniformly in
  /// [flash_start_s, flash_start_s + flash_spread_s) per tenant, so crowds
  /// hit tenants at staggered, seed-determined times.
  Seconds flash_start_s = 0.0;
  Seconds flash_spread_s = 60.0;
  Seconds flash_window_s = 30.0;

  bool enabled() const noexcept {
    return node_failures || preemption || cold_storms || flash_crowds;
  }
  /// Families that act at reconciliation barriers and therefore need a
  /// finite epoch_s (flash crowds alone work on the static path too).
  bool needs_epochs() const noexcept {
    return node_failures || preemption || cold_storms;
  }
};

/// Parses a CLI chaos spec: a comma-separated subset of
/// {failures, preemption, storms, flash}, or "all", or "none".  Throws
/// std::invalid_argument (a usage-class error) on anything else.
ChaosConfig chaos_config_from_spec(const std::string& spec);

/// One injected chaos event — part of the deterministic audit trail
/// (compared bit-for-bit across shard counts, like the epoch log).
struct ChaosEvent {
  ChaosFamily family = ChaosFamily::NodeFailure;
  /// Barrier index for barrier families; -1 for flash windows (scheduled
  /// at plan time, before any epoch exists).
  int epoch = -1;
  Seconds sim_time = 0.0;
  int tenant = -1;  // preemption / flash; -1 for cluster-wide events
  int node = -1;    // failed node index (valid at failure time)
  int pods = 0;     // pods displaced (failure) or killed (preemption)
  int stranded = 0; // pods that could not be re-packed (failure)
  /// Storm or flash multiplier; 0 for the other families.
  double magnitude = 0.0;
  /// Event end: flash window end, or storm end barrier time.
  Seconds until_s = 0.0;
};

/// Aggregate chaos tallies for the scorecard (one per run).
struct ChaosStats {
  int node_failures = 0;
  int displaced_pods = 0;
  /// Pods dropped because no node could take them — the cluster's total,
  /// including stranding during post-failure regrowth (set at merge from
  /// ClusterCapacity::stranded_pods()).
  int stranded_pods = 0;
  int preemption_bursts = 0;
  int preempted_pods = 0;
  int storms = 0;
  int flash_windows = 0;
  /// Invocations that lost their pod mid-flight and re-paid startup +
  /// execution (summed over tenants as they retire).
  std::uint64_t requeued_invocations = 0;
};

class ChaosEngine {
 public:
  /// `fleet_seed` is FleetConfig::seed; `tenants` the tenant count.  The
  /// chaos stream is keyed on fleet_seed ^ config.seed, so chaos draws
  /// never overlap tenant workload streams (which derive from fleet_seed
  /// and tenant index via a different mix).
  ChaosEngine(ChaosConfig config, std::uint64_t fleet_seed,
              std::size_t tenants);

  const ChaosConfig& config() const noexcept { return config_; }

  /// What one barrier injects.  Drawn from (root seed, epoch index) with a
  /// fixed draw order — node failure, per-tenant preemption, storm — so
  /// the schedule is independent of cluster or platform state except where
  /// stated (the failure victim needs the current node count, itself a
  /// deterministic fold).
  struct BarrierPlan {
    /// Node indices to fail, valid against the cluster as each failure is
    /// applied in order (at most one today; a vector so multi-failure
    /// barriers stay an additive change).
    std::vector<int> failed_nodes;
    /// Tenants hit by a preemption burst this barrier.
    std::vector<std::size_t> preempt_tenants;
    /// Startup multiplier in force after this barrier (1 = calm).
    double storm_multiplier = 1.0;
    /// True exactly when a storm began at this barrier.
    bool storm_started = false;
  };
  BarrierPlan plan_barrier(int epoch, int cluster_nodes);

  /// Plan-time flash window for one tenant: returns `spec` with the flash
  /// fields armed (window start staggered per tenant by seed), recording
  /// the event.  Returns `spec` unchanged when flash crowds are off.
  ArrivalSpec apply_flash(std::size_t tenant, ArrivalSpec spec);

  // Outcome recording (run_fleet reports what each injection actually did;
  // the engine owns the log so events stay in injection order).
  void record_failure(int epoch, Seconds sim_time, int node, int displaced,
                      int stranded);
  void record_preemption(int epoch, Seconds sim_time, int tenant, int pods);
  void record_storm(int epoch, Seconds sim_time, Seconds until_s);

  void add_requeued(std::uint64_t n) { stats_.requeued_invocations += n; }
  void set_stranded_total(int n) { stats_.stranded_pods = n; }

  const std::vector<ChaosEvent>& log() const noexcept { return log_; }
  const ChaosStats& stats() const noexcept { return stats_; }

 private:
  ChaosConfig config_;
  std::uint64_t root_ = 0;
  std::size_t tenants_ = 0;
  /// Barriers the active storm still covers (counts down as barriers pass).
  int storm_remaining_ = 0;
  std::vector<ChaosEvent> log_;
  ChaosStats stats_;
};

}  // namespace janus
