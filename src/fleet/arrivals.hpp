// Pluggable open-loop load generation.
//
// An ArrivalProcess turns a deterministic Rng stream into a monotone
// sequence of absolute request arrival times.  Three processes cover the
// fleet's traffic shapes:
//
//   * Poisson  — memoryless arrivals at a constant rate (the paper's
//     open-loop measurement setup; `RunConfig::open_loop_rate` semantics).
//   * MMPP     — a 2-state Markov-modulated Poisson process alternating
//     between a base and a burst rate, with exponentially distributed
//     dwell times (bursty tenant traffic).
//   * Diurnal  — a sinusoidal rate curve sampled by Lewis-Shedler
//     thinning (slow daily load swing).
//   * Trace    — deterministic replay of a recorded inter-arrival vector
//     (synthesized by model/trace_synth or loaded from a CSV), looping
//     when requests outnumber samples, so fleet tenants can follow
//     recorded production rhythms instead of parametric processes.
//
// The split between arrival process, service model, and measurement follows
// load-generator practice (cf. mutated's generator/config separation): the
// process owns *when* requests arrive and nothing else.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace janus {

enum class ArrivalKind { Poisson, Mmpp, Diurnal, Trace };

const char* to_string(ArrivalKind kind) noexcept;

/// Parses "poisson" | "mmpp" | "diurnal" (throws on anything else).
ArrivalKind arrival_kind_from_string(const std::string& name);

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::Poisson;
  /// Base rate in requests/s (> 0).  Poisson: the rate; MMPP: the
  /// non-burst rate; Diurnal: the mean of the rate curve.
  double rate = 10.0;
  // --- MMPP ---
  /// Rate while bursting (>= rate).
  double burst_rate = 50.0;
  /// Mean dwell times of the base and burst states, seconds (> 0).
  Seconds base_dwell_s = 20.0;
  Seconds burst_dwell_s = 2.0;
  // --- Diurnal ---
  /// Period of the rate curve, seconds (> 0).
  Seconds period_s = 600.0;
  /// Peak-to-mean swing in [0, 1]: rate(t) = rate * (1 + a sin(2πt/T)).
  double amplitude = 0.5;
  // --- Trace ---
  /// Inter-arrival gaps in seconds, replayed in order and looped
  /// deterministically when requests outnumber samples.  All gaps must be
  /// > 0 (arrival sequences are strictly monotone); `rate` is ignored —
  /// the trace defines its own rate.
  std::vector<Seconds> trace_gaps{};
  // --- Flash crowd (composable with every kind) ---
  /// Rate multiplier over the scheduled window [flash_t0_s, flash_t1_s):
  /// 1 (the default) disables the window.  Implemented as a deterministic
  /// time warp around the base process, so the window composes with
  /// Poisson/MMPP/Diurnal/Trace alike and inside it the instantaneous
  /// rate is exactly K x the base process's.  Must be > 0 (K < 1 models a
  /// brown-out instead of a crowd); when != 1 the window must satisfy
  /// 0 <= flash_t0_s < flash_t1_s.
  double flash_k = 1.0;
  Seconds flash_t0_s = 0.0;
  Seconds flash_t1_s = 0.0;

  /// Long-run mean arrival rate of the process (used for capacity
  /// planning, e.g. the fleet's pod estimates).  Deliberately excludes the
  /// flash window: a flash crowd is a transient the capacity plan does not
  /// see coming — that blindness is what the chaos benches measure.
  double mean_rate() const;

  /// True when a flash window is armed (flash_k != 1).
  bool has_flash() const noexcept { return flash_k != 1.0; }
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual ArrivalKind kind() const noexcept = 0;
  /// Absolute time of the next arrival after `now`.  Successive calls with
  /// the previous return value generate the arrival sequence; all
  /// randomness comes from `rng`, so a fixed seed fixes the sequence.
  virtual Seconds next(Seconds now, Rng& rng) = 0;
};

/// Throws std::invalid_argument unless `spec` describes a valid process:
/// the one validator, shared by make_arrivals and the fleet plan (which
/// checks every tenant's spec without building a process).
void validate_arrivals(const ArrivalSpec& spec);

/// Builds the process described by `spec` (validates it first).
std::unique_ptr<ArrivalProcess> make_arrivals(const ArrivalSpec& spec);

/// Returns `spec` with its long-run offered rate scaled by `factor` (> 0)
/// and its *shape* untouched — the frontier explorer's one knob:
///
///   * Poisson/Diurnal: rate is multiplied (period and amplitude stay).
///   * MMPP: both state rates are multiplied; the dwell times stay, so the
///     burst structure keeps its footprint on the absolute time axis and
///     mean_rate() scales exactly (it is a dwell-weighted average of the
///     two rates).
///   * Trace: every inter-arrival gap is divided by `factor`.
///   * Flash windows pass through unchanged: the multiplier composes with
///     the warp, exactly as flash_k composes with every base kind.
///
/// mean_rate() scales by `factor` up to FP rounding for every kind; with a
/// power-of-two factor the per-gap scaling is IEEE-exact, which is what
/// the frontier determinism tests pin.
ArrivalSpec scale_arrivals(const ArrivalSpec& spec, double factor);

}  // namespace janus
