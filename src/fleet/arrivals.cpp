#include "fleet/arrivals.hpp"

#include <cmath>
#include <limits>

namespace janus {

const char* to_string(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::Mmpp: return "mmpp";
    case ArrivalKind::Diurnal: return "diurnal";
    case ArrivalKind::Trace: return "trace";
  }
  return "?";
}

ArrivalKind arrival_kind_from_string(const std::string& name) {
  if (name == "poisson") return ArrivalKind::Poisson;
  if (name == "mmpp") return ArrivalKind::Mmpp;
  if (name == "diurnal") return ArrivalKind::Diurnal;
  if (name == "trace") return ArrivalKind::Trace;
  throw_invalid(
      "unknown arrival kind (expected poisson, mmpp, diurnal, or trace): " +
      name);
}

double ArrivalSpec::mean_rate() const {
  switch (kind) {
    case ArrivalKind::Mmpp:
      // Time-weighted average over the two states' stationary shares.
      return (rate * base_dwell_s + burst_rate * burst_dwell_s) /
             (base_dwell_s + burst_dwell_s);
    case ArrivalKind::Trace: {
      Seconds total = 0.0;
      for (Seconds gap : trace_gaps) total += gap;
      return total > 0.0
                 ? static_cast<double>(trace_gaps.size()) / total
                 : 0.0;
    }
    case ArrivalKind::Poisson:
    case ArrivalKind::Diurnal:
      return rate;
  }
  return rate;
}

ArrivalSpec scale_arrivals(const ArrivalSpec& spec, double factor) {
  require(factor > 0.0 && std::isfinite(factor),
          "arrival scale factor must be finite and > 0");
  ArrivalSpec out = spec;
  switch (spec.kind) {
    case ArrivalKind::Poisson:
    case ArrivalKind::Diurnal:
      out.rate = spec.rate * factor;
      break;
    case ArrivalKind::Mmpp:
      out.rate = spec.rate * factor;
      out.burst_rate = spec.burst_rate * factor;
      break;
    case ArrivalKind::Trace:
      for (Seconds& gap : out.trace_gaps) gap /= factor;
      break;
  }
  return out;
}

namespace {

class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(const ArrivalSpec& spec) : rate_(spec.rate) {}

  ArrivalKind kind() const noexcept override { return ArrivalKind::Poisson; }

  Seconds next(Seconds now, Rng& rng) override {
    return now + rng.exponential(rate_);
  }

 private:
  double rate_;
};

class MmppArrivals final : public ArrivalProcess {
 public:
  explicit MmppArrivals(const ArrivalSpec& spec) : spec_(spec) {}

  ArrivalKind kind() const noexcept override { return ArrivalKind::Mmpp; }

  Seconds next(Seconds now, Rng& rng) override {
    Seconds t = now;
    for (;;) {
      if (t >= state_until_) {
        // Enter the other state; draw its dwell.  The first call lands
        // here too (state_until_ starts at 0), seeding the base state.
        if (started_) bursting_ = !bursting_;
        started_ = true;
        const Seconds dwell = bursting_ ? spec_.burst_dwell_s
                                        : spec_.base_dwell_s;
        state_until_ = t + rng.exponential(1.0 / dwell);
      }
      const double rate = bursting_ ? spec_.burst_rate : spec_.rate;
      const Seconds candidate = t + rng.exponential(rate);
      if (candidate <= state_until_) return candidate;
      // The draw crossed a state boundary: discard it and redraw in the
      // next state (valid because the exponential is memoryless).
      t = state_until_;
    }
  }

 private:
  ArrivalSpec spec_;
  bool started_ = false;
  bool bursting_ = false;
  Seconds state_until_ = 0.0;
};

class DiurnalArrivals final : public ArrivalProcess {
 public:
  explicit DiurnalArrivals(const ArrivalSpec& spec) : spec_(spec) {}

  ArrivalKind kind() const noexcept override { return ArrivalKind::Diurnal; }

  Seconds next(Seconds now, Rng& rng) override {
    // Lewis-Shedler thinning against the curve's peak rate.
    const double peak = spec_.rate * (1.0 + spec_.amplitude);
    Seconds t = now;
    for (;;) {
      t += rng.exponential(peak);
      if (rng.uniform() * peak <= rate_at(t)) return t;
    }
  }

 private:
  double rate_at(Seconds t) const {
    constexpr double kTwoPi = 6.283185307179586;
    return spec_.rate *
           (1.0 + spec_.amplitude * std::sin(kTwoPi * t / spec_.period_s));
  }

  ArrivalSpec spec_;
};

class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(const ArrivalSpec& spec) : gaps_(spec.trace_gaps) {}

  ArrivalKind kind() const noexcept override { return ArrivalKind::Trace; }

  Seconds next(Seconds now, Rng& rng) override {
    // Pure replay: no randomness consumed; the cursor loops over the
    // recorded gaps so requests can outnumber samples deterministically.
    (void)rng;
    const Seconds gap = gaps_[cursor_];
    cursor_ = (cursor_ + 1) % gaps_.size();
    return now + gap;
  }

 private:
  std::vector<Seconds> gaps_;
  std::size_t cursor_ = 0;
};

/// Flash-crowd window: a deterministic time warp around any base process.
///
/// Warped time u(t) runs K times faster than real time inside
/// [t0, t1) and at unit speed outside, so the base process — asked for
/// its next arrival in warped time — fires K times more often inside the
/// window.  The warp is strictly increasing (K > 0), so the arrival
/// sequence stays strictly monotone, and it composes with every kind:
/// a Poisson base yields exactly rate x K inside the window, MMPP keeps
/// its burst structure, a trace replays K times faster.
class FlashArrivals final : public ArrivalProcess {
 public:
  FlashArrivals(std::unique_ptr<ArrivalProcess> base, Seconds t0, Seconds t1,
                double k)
      : base_(std::move(base)), t0_(t0), t1_(t1), k_(k) {}

  ArrivalKind kind() const noexcept override { return base_->kind(); }

  Seconds next(Seconds now, Rng& rng) override {
    const Seconds t = unwarp(base_->next(warp(now), rng));
    // Rounding through warp/unwarp can collapse a sub-ulp gap; nudge so
    // the sequence stays strictly monotone (deterministic — no draw).
    if (t <= now) {
      return std::nextafter(now, std::numeric_limits<Seconds>::infinity());
    }
    return t;
  }

 private:
  Seconds warp(Seconds t) const {
    if (t <= t0_) return t;
    if (t < t1_) return t0_ + (t - t0_) * k_;
    return t + (t1_ - t0_) * (k_ - 1.0);
  }
  Seconds unwarp(Seconds u) const {
    if (u <= t0_) return u;
    const Seconds u1 = t0_ + (t1_ - t0_) * k_;  // warp(t1)
    if (u < u1) return t0_ + (u - t0_) / k_;
    return u - (t1_ - t0_) * (k_ - 1.0);
  }

  std::unique_ptr<ArrivalProcess> base_;
  Seconds t0_;
  Seconds t1_;
  double k_;
};

}  // namespace

void validate_arrivals(const ArrivalSpec& spec) {
  // A trace defines its own rate; everything else needs the knob.
  if (spec.kind != ArrivalKind::Trace) {
    require(spec.rate > 0.0, "arrival rate must be > 0");
  }
  require(spec.flash_k > 0.0, "flash multiplier must be > 0");
  if (spec.has_flash()) {
    require(spec.flash_t0_s >= 0.0 && spec.flash_t1_s > spec.flash_t0_s,
            "flash window must satisfy 0 <= t0 < t1");
  }
  switch (spec.kind) {
    case ArrivalKind::Poisson:
      break;
    case ArrivalKind::Mmpp:
      require(spec.burst_rate >= spec.rate,
              "MMPP burst rate must be >= base rate");
      require(spec.base_dwell_s > 0.0 && spec.burst_dwell_s > 0.0,
              "MMPP dwell times must be > 0");
      break;
    case ArrivalKind::Diurnal:
      require(spec.period_s > 0.0, "diurnal period must be > 0");
      require(spec.amplitude >= 0.0 && spec.amplitude <= 1.0,
              "diurnal amplitude must be in [0, 1]");
      break;
    case ArrivalKind::Trace:
      require(!spec.trace_gaps.empty(),
              "trace replay needs >= 1 inter-arrival gap");
      for (Seconds gap : spec.trace_gaps) {
        require(gap > 0.0, "trace inter-arrival gaps must be > 0");
      }
      break;
  }
}

std::unique_ptr<ArrivalProcess> make_arrivals(const ArrivalSpec& spec) {
  validate_arrivals(spec);
  std::unique_ptr<ArrivalProcess> base;
  switch (spec.kind) {
    case ArrivalKind::Poisson:
      base = std::make_unique<PoissonArrivals>(spec);
      break;
    case ArrivalKind::Mmpp:
      base = std::make_unique<MmppArrivals>(spec);
      break;
    case ArrivalKind::Diurnal:
      base = std::make_unique<DiurnalArrivals>(spec);
      break;
    case ArrivalKind::Trace:
      base = std::make_unique<TraceArrivals>(spec);
      break;
  }
  if (base == nullptr) throw_invalid("unknown arrival kind");
  if (spec.has_flash()) {
    return std::make_unique<FlashArrivals>(std::move(base), spec.flash_t0_s,
                                           spec.flash_t1_s, spec.flash_k);
  }
  return base;
}

}  // namespace janus
