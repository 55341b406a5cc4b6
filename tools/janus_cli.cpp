// janus_cli — command-line front end for the developer-side workflow.
//
//   janus_cli profile <ia|va> <out-dir>        profile and dump CSV grids
//   janus_cli synthesize <ia|va> <out-dir> [weight] [conc]
//                                              profile + synthesize, dump
//                                              condensed hints tables
//   janus_cli lookup <hints.csv> <budget-ms>   query a condensed table
//   janus_cli serve <ia|va> [requests] [slo]   profile, synthesize, serve,
//                                              print the summary row
//   janus_cli fleet [flags]                    sharded multi-tenant fleet
//                                              simulation
//   janus_cli frontier --step R [flags]        latency-throughput frontier
//
// `serve` and `fleet` accept `--seed N` and `--json` so runs are
// scriptable: a fixed seed reproduces every simulation metric bit-for-bit
// (in the fleet JSON only wall_seconds and the obs phases,
// plan_wait_seconds and peak_pending, printed only when an obs pillar is
// on, are machine-dependent) and --json
// swaps the human tables for one machine-readable object on stdout.
//
// Every flag is declared once, as one row of kFlags: its name, help
// placeholder, target Flags field (whose type picks the parse), the
// commands that take it, its accepted range and its help text.  The
// parser, the per-command acceptance check and the help's flag sections
// all read that table, so adding a flag means adding one row.
//
// Exit codes: 0 on success and for help; 2 for usage errors (an unknown
// command or flag, a flag the command does not take, a wrong positional
// count, a missing required flag, an unknown policy or chaos family);
// 1 for malformed or out-of-range values, failed I/O and failed runs.
// Every rejection is one line on stderr.
//
// Everything runs against the built-in workload catalog; CSV files use the
// same schema as LatencyProfile/HintsTable::to_csv, so tables produced here
// can be loaded anywhere in the library.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "fleet/fleet.hpp"
#include "fleet/frontier.hpp"
#include "fleet/policies.hpp"
#include "hints/generator.hpp"
#include "model/trace_synth.hpp"
#include "model/workloads.hpp"
#include "policy/janus_policy.hpp"
#include "profiler/profiler.hpp"

using namespace janus;

namespace {

/// Usage-class error (exit 2, one line): the command line names something
/// the CLI does not have, or leaves out something it needs.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The parsed command line.  std::optional marks the flags whose presence,
/// not just their value, matters.
struct Flags {
  bool help = false;
  std::uint64_t seed = 2026;
  bool json = false;
  int tenants = 8;
  int requests = 1000;  // per tenant
  int shards = 4;
  bool stream = false;
  std::string conc;       // per-tenant concurrency list; empty = all 1
  std::string hints_dir;  // committed hints CSVs; empty = synthesize
  double rate = 10.0;
  std::string arrivals = "mixed";
  std::string trace;  // CSV path or "synth"; empty = no trace replay
  // `--policy ""` and `--chaos ""` must error like any other bad name,
  // never fall back to the default.
  std::optional<std::string> policy;  // absent = all fixed
  double contention_alpha = 0.0;
  int nodes = 16;
  int node_mc = 52000;
  double epoch_s = kNoEpochs;
  bool autoscale = false;
  std::string trace_out;  // span artifact path; empty = tracing off
  int obs_sample = 1;
  std::string obs_timeline;  // timeline artifact path; empty = off
  std::optional<std::string> chaos;
  std::optional<std::uint64_t> chaos_seed;  // absent = ChaosConfig's seed
  std::string flash;        // "T0:T1:K" window; empty = off
  std::string shard_slice;  // "LO:HI" worker range; empty = whole fleet
  std::string result_bin;   // slice blob output path (with --shard-slice)
  std::vector<std::string> merge_slices;  // slice blobs to merge
  std::optional<double> step;  // frontier ramp increment (required there)
  std::optional<double> stop;  // frontier ramp ceiling; absent = 8 * step
  double slo_target = 0.95;    // frontier: sustained = SLO-met >= this
  int bisect = 6;              // frontier bisection iterations
  std::string json_out;        // frontier JSON artifact path; empty = off
  std::string csv_out;         // frontier CSV artifact path; empty = off
  std::string log_level;       // empty = leave the library default (warn)
};

/// Accepted values of a numeric flag: above `lo` (or at it, when closed)
/// and at most `hi`.  Only hi = +inf admits infinity; NaN never passes.
struct Range {
  double lo;
  bool lo_open;
  double hi;
};
constexpr double kMax = std::numeric_limits<double>::max();
constexpr Range kAny{-kMax, false, kMax};
constexpr Range kPositive{0.0, true, kMax};
constexpr Range kNonNegative{0.0, false, kMax};
constexpr Range kAtLeastOne{1.0, false, kMax};
constexpr Range kFraction{0.0, true, 1.0};
constexpr Range kShardCount{1.0, false, kMaxFleetShards};
constexpr Range kEpochLength{0.0, true, kNoEpochs};

// Command bits: each flag row names the commands that take it.
constexpr unsigned kProfile = 1, kSynthesize = 2, kLookup = 4, kServe = 8,
                   kFleet = 16, kFrontier = 32;
constexpr unsigned kWorkload = kFleet | kFrontier;
constexpr unsigned kEvery = 63;

/// A flag's target field; the field's type picks the parse.
using Field = std::variant<bool Flags::*, int Flags::*, double Flags::*,
                           std::uint64_t Flags::*, std::string Flags::*,
                           std::optional<double> Flags::*,
                           std::optional<std::uint64_t> Flags::*,
                           std::optional<std::string> Flags::*,
                           std::vector<std::string> Flags::*>;

struct FlagSpec {
  const char* name;
  const char* arg;  // help placeholder; "" for a switch
  Field field;
  unsigned commands;
  Range range;       // numeric fields only
  const char* help;  // '\n' starts a continuation line; "" = not listed
};

// In help order: the fleet section lists every row fleet takes.
const FlagSpec kFlags[] = {
    {"--tenants", "N", &Flags::tenants, kWorkload, kAtLeastOne,
     "tenant count (default 8)"},
    {"--requests", "N", &Flags::requests, kWorkload, kAtLeastOne,
     "requests per tenant (default 1000)"},
    {"--shards", "N", &Flags::shards, kWorkload, kShardCount,
     "simulation shards / threads (default 4, at most\n1024)"},
    {"--stream", "", &Flags::stream, kWorkload, kAny,
     "streaming merge: fold each tenant's metrics the\n"
     "moment it completes and free its state — memory\n"
     "stays O(active tenants).  Per-tenant rows are\n"
     "dropped and fleet p50/p99 come from the merged\n"
     "histogram; every other metric is bit-identical"},
    {"--conc", "N[,N..]", &Flags::conc, kWorkload, kAny,
     "per-request concurrency, dealt round-robin over\n"
     "the tenants and clamped to each workload's\n"
     "batching ceiling (default 1)"},
    {"--hints-dir", "D", &Flags::hints_dir, kWorkload, kAny,
     "load committed hints tables from D (written by\n"
     "`janus_cli synthesize`) instead of synthesizing\n"
     "in-process; missing tables still synthesize"},
    {"--seed", "N", &Flags::seed, kServe | kWorkload, kAny,
     "fleet seed; fixes every metric bit-for-bit"},
    {"--rate", "R", &Flags::rate, kWorkload, kPositive,
     "base arrival rate, requests/s (default 10)"},
    {"--arrivals", "K", &Flags::arrivals, kWorkload, kAny,
     "poisson|mmpp|diurnal|trace|mixed (default mixed)"},
    {"--trace", "P", &Flags::trace, kWorkload, kAny,
     "replay inter-arrival gaps: P is a CSV path (one\n"
     "gap in seconds per line) or 'synth' for a\n"
     "synthesized production-shaped trace; implies\n"
     "--arrivals trace, loops when requests outnumber\n"
     "samples"},
    {"--policy", "P[,P]", &Flags::policy, kWorkload, kAny,
     "per-tenant sizing policies, dealt round-robin\n"
     "over the tenants (e.g. janus,orion,mean_based);\n"
     "one name = homogeneous fleet.  Valid (default\n"
     "fixed):\n"
     "%s\n"
     "Hints tables are synthesized once per (workload,\n"
     "policy) and shared read-only across tenants"},
    {"--contention-alpha", "A", &Flags::contention_alpha, kWorkload,
     kNonNegative,
     "scale every tenant's allocation by\n"
     "1 + A*(live co-residency - 1): policies react\n"
     "directly to the epoch feed (default 0 = off)"},
    {"--nodes", "N", &Flags::nodes, kWorkload, kAtLeastOne,
     "cluster node-pool size at plan time (default 16)"},
    {"--node-mc", "N", &Flags::node_mc, kWorkload, kAtLeastOne,
     "node capacity in millicores (default 52000)"},
    {"--epoch-s", "X", &Flags::epoch_s, kWorkload, kEpochLength,
     "sim-seconds between cross-shard reconciliation\n"
     "barriers; 'inf' (default) plans once and freezes\n"
     "the packing, finite X closes the loop between\n"
     "observed pod counts and interference draws"},
    {"--autoscale", "", &Flags::autoscale, kWorkload, kAny,
     "grow/shrink the node pool from utilization at\n"
     "each epoch barrier (scale-out pays one epoch of\n"
     "latency; scale-in repacks displaced pods)"},
    {"--trace-out", "P", &Flags::trace_out, kFleet, kAny,
     "record request spans and write them to P:\n"
     ".json = Chrome/Perfetto trace_event format (open\n"
     "at ui.perfetto.dev), .csv = flat rows.  Sim-time\n"
     "timestamps: byte-identical at any shard count"},
    {"--obs-sample", "N", &Flags::obs_sample, kFleet, kAtLeastOne,
     "record every Nth request (by request index;\n"
     "default 1 = all); needs --trace-out"},
    {"--obs-timeline", "P", &Flags::obs_timeline, kFleet, kAny,
     "write the per-(epoch, tenant, stage) control-plane\n"
     "timeline to P (.json or .csv); rows only appear\n"
     "when --epoch-s is finite"},
    {"--chaos", "SPEC", &Flags::chaos, kWorkload, kAny,
     "deterministic chaos injection: a comma-separated\n"
     "subset of failures,preemption,storms,flash — or\n"
     "all, or none.  failures/preemption/storms act at\n"
     "epoch barriers and need a finite --epoch-s; the\n"
     "schedule is a pure function of (--seed,\n"
     "--chaos-seed, tenant set), bit-identical at any\n"
     "--shards"},
    {"--chaos-seed", "N", &Flags::chaos_seed, kWorkload, kAny,
     "chaos schedule seed (default 7), mixed with\n"
     "--seed so one workload can face many schedules;\n"
     "needs --chaos"},
    {"--flash", "T0:T1:K", &Flags::flash, kWorkload, kAny,
     "multiply every tenant's arrival rate by K over\n"
     "[T0, T1) sim-seconds (composes with every\n"
     "--arrivals kind; cannot be combined with --chaos\n"
     "flash, which schedules its own windows)"},
    {"--shard-slice", "LO:HI", &Flags::shard_slice, kFleet, kAny,
     "worker mode: plan the whole fleet but simulate\n"
     "only tenants [LO, HI) and write the slice blob to\n"
     "--result-bin (static path only; see\n"
     "--merge-slices)"},
    {"--result-bin", "P", &Flags::result_bin, kFleet, kAny,
     "slice blob output path (needs --shard-slice)"},
    {"--merge-slices", "P", &Flags::merge_slices, kFleet, kAny,
     "repeatable: decode the named slice blobs and\n"
     "merge them (under this command line's fleet\n"
     "config) into the ordinary fleet report —\n"
     "bit-identical to an in-process run"},
    {"--json", "", &Flags::json, kServe | kWorkload, kAny,
     "machine-readable result on stdout"},
    {"--step", "R", &Flags::step, kFrontier, kPositive,
     "ramp increment in fleet req/s (required > 0):\n"
     "points R, 2R, ... run until the SLO-met target is\n"
     "first missed, then bisection pins the knee"},
    {"--stop", "R", &Flags::stop, kFrontier, kPositive,
     "ramp ceiling in req/s (default 8x --step); every\n"
     "point sustaining marks the knee censored-high"},
    {"--slo-target", "F", &Flags::slo_target, kFrontier, kFraction,
     "fraction of requests that must meet their SLO for\n"
     "a point to count as sustained (default 0.95)"},
    {"--bisect", "N", &Flags::bisect, kFrontier, kNonNegative,
     "bisection iterations inside the bracketed step\n"
     "(default 6); knee resolution is step / 2^N"},
    {"--json-out", "P", &Flags::json_out, kFrontier, kAny,
     "write the frontier artifact (points + knee) as\n"
     "JSON to P"},
    {"--csv-out", "P", &Flags::csv_out, kFrontier, kAny,
     "write the per-point frontier table as CSV to P"},
    {"--log-level", "L", &Flags::log_level, kEvery, kAny,
     "stderr diagnostics: debug|info|warn|error|off\n"
     "(default warn)"},
    {"--help", "", &Flags::help, kEvery, kAny, ""},  // named in the footer
};

/// States what a value of type T must be, for its error message.
template <class T>
std::string expectation(const Range& r) {
  const auto num = [](double v) {
    std::ostringstream out;
    out << v;
    return out.str();
  };
  std::string text = std::is_same_v<T, int>      ? "an integer"
                     : !std::is_same_v<T, double> ? "a non-negative integer"
                     : r.hi == kMax               ? "a finite number"
                                                  : "a number";
  if (r.lo == -kMax) return text;
  if (r.hi == kMax || r.hi == kNoEpochs) {
    return text + (r.lo_open ? " > " : " >= ") + num(r.lo) +
           (r.hi == kNoEpochs ? " or inf" : "");
  }
  return text + " in " + (r.lo_open ? "(" : "[") + num(r.lo) + ", " +
         num(r.hi) + "]";
}

/// Strict numeric parsing: the whole token must be consumed and land in
/// `range`, so "4x", "1e3" for an integer, "nan" or "inf" error instead
/// of truncating or coercing.  `what` names the flag or positional.
template <class T>
T parse_as(const std::string& text, const std::string& what,
           const Range& range) {
  T value{};
  std::size_t used = 0;
  try {
    if constexpr (std::is_same_v<T, int>) {
      value = std::stoi(text, &used);
    } else if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &used);
    } else if (text.find_first_not_of("0123456789") == std::string::npos) {
      // Plain decimal only: stoull would wrap "-1" into a huge value.
      value = std::stoull(text, &used);
    }
  } catch (const std::exception&) {
    used = 0;
  }
  const double v = static_cast<double>(value);
  if (text.empty() || used != text.size() ||
      !(range.lo_open ? v > range.lo : v >= range.lo) || !(v <= range.hi)) {
    throw_invalid(what + " expects " + expectation<T>(range) + ": " + text);
  }
  return value;
}

template <class T>
void assign(T& slot, const std::string& text, const FlagSpec& spec) {
  if constexpr (std::is_same_v<T, std::string>) {
    slot = text;
  } else {
    slot = parse_as<T>(text, spec.name, spec.range);
  }
}
template <class T>
void assign(std::optional<T>& slot, const std::string& text,
            const FlagSpec& spec) {
  assign(slot.emplace(), text, spec);
}
void assign(std::vector<std::string>& slot, const std::string& text,
            const FlagSpec&) {
  slot.push_back(text);  // repeatable
}

/// Parses argv[2..] against kFlags into `flags`; everything that is not a
/// flag (including negative numbers such as serve's "-1" SLO) goes to
/// `positional`.  A flag that parses but does nothing is worse than an
/// error, so a flag `command` does not take is rejected.
void parse_flags(int argc, char** argv, const char* command, unsigned bit,
                 Flags& flags, std::vector<std::string>& positional) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-' ||
        std::isdigit(static_cast<unsigned char>(arg[1])) || arg[1] == '.') {
      positional.push_back(arg);
      continue;
    }
    const auto spec =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const FlagSpec& f) { return arg == f.name; });
    if (spec == std::end(kFlags)) throw UsageError("unknown flag " + arg);
    if ((spec->commands & bit) == 0) {
      throw UsageError("flag " + arg + " is not valid for janus_cli " +
                       command);
    }
    std::visit(
        [&](auto field) {
          if constexpr (std::is_same_v<decltype(field), bool Flags::*>) {
            flags.*field = true;
          } else {
            if (i + 1 >= argc) throw_invalid(arg + " needs a value");
            assign(flags.*field, argv[++i], *spec);
          }
        },
        spec->field);
  }
}

/// Splits on `sep`, keeping empty segments ("a," -> {"a", ""}) so a stray
/// separator errors like any other bad value instead of vanishing.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts(1);
  for (const char c : text) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_invalid("cannot open " + what + ": " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Writes `bytes` to `path` and confirms on *stderr*, so --json keeps
/// stdout as one machine-readable object.  The stream is closed before it
/// is checked: a full device fails the flush of the buffered bytes, and
/// that must fail the run.
void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (out.fail()) throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "janus_cli: wrote %s (%zu bytes)\n", path.c_str(),
               bytes.size());
}

bool ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes an observability artifact, choosing the format by extension.
void write_artifact(const std::string& path, const char* what,
                    const std::string& json, const std::string& csv) {
  if (ends_with(path, ".json")) {
    write_file(path, json);
  } else if (ends_with(path, ".csv")) {
    write_file(path, csv);
  } else {
    throw_invalid(std::string(what) +
                  " path must end in .json or .csv: " + path);
  }
}

using Args = std::vector<std::string>;

int cmd_profile(const Flags&, const Args& pos) {
  const WorkloadSpec workload = workload_by_name(pos[0]);
  const auto profiles =
      profile_workload(workload, default_profiler_config(workload));
  for (const auto& profile : profiles) {
    write_file(pos[1] + "/" + workload.name + "_" + profile.function_name() +
                   "_profile.csv",
               profile.to_csv());
  }
  return 0;
}

int cmd_synthesize(const Flags&, const Args& pos) {
  const WorkloadSpec workload = workload_by_name(pos[0]);
  const double weight =
      pos.size() > 2 ? parse_as<double>(pos[2], "synthesize [weight]", kAny)
                     : 1.0;
  const Concurrency conc =
      pos.size() > 3 ? parse_as<int>(pos[3], "synthesize [conc]", kAny) : 1;
  ProfilerConfig prof = default_profiler_config(workload);
  prof.grid.concurrencies = {conc};
  const auto profiles = profile_workload(workload, prof);

  SynthesisConfig config;
  config.weight = weight;
  config.concurrency = conc;
  const HintsBundle bundle = synthesize_bundle(profiles, config);
  std::printf("synthesized %zu raw -> %zu condensed hints in %.2fs\n",
              bundle.stats.raw_hints, bundle.stats.condensed_hints,
              bundle.stats.elapsed_s);
  // Canonical filenames (hints_bundle_filename) so a fleet run can load
  // the committed tables back with `fleet --hints-dir <out-dir>` instead
  // of re-synthesizing in every process.
  for (std::size_t j = 0; j < bundle.suffix_tables.size(); ++j) {
    write_file(pos[1] + "/" +
                   hints_bundle_filename(workload.name, conc,
                                         config.exploration, j),
               bundle.suffix_tables[j].to_csv());
  }
  return 0;
}

int cmd_lookup(const Flags&, const Args& pos) {
  const BudgetMs budget = parse_as<int>(pos[1], "lookup <budget-ms>", kAny);
  const HintsTable table = HintsTable::from_csv(read_file(pos[0], "table"));
  const auto result = table.lookup(budget);
  switch (result.kind) {
    case HintsTable::LookupKind::Hit:
      std::printf("hit: %d mc\n", result.size);
      break;
    case HintsTable::LookupKind::ClampedHigh:
      std::printf("clamped-high (budget above table range): %d mc\n",
                  result.size);
      break;
    case HintsTable::LookupKind::Miss:
      std::printf("miss: scale to Kmax (%d mc)\n", kDefaultKmax);
      break;
  }
  return 0;
}

int cmd_serve(const Flags& flags, const Args& pos) {
  const WorkloadSpec workload = workload_by_name(pos[0]);
  const int requests =
      pos.size() > 1 ? parse_as<int>(pos[1], "serve [requests]", kAny) : 500;
  Seconds slo =
      pos.size() > 2 ? parse_as<double>(pos[2], "serve [slo-seconds]", kAny)
                     : 0.0;
  if (slo <= 0.0) slo = workload.slo(1);
  const auto profiles =
      profile_workload(workload, default_profiler_config(workload));
  SynthesisConfig synth;
  auto policy = make_janus(profiles, synth, slo);
  RunConfig run;
  run.slo = slo;
  run.requests = requests;
  run.seed = flags.seed;
  const RunResult result = run_workload(workload, *policy, run);
  const auto& stats = policy->adapter().stats();
  if (flags.json) {
    std::printf(
        "{\"workload\": \"%s\", \"policy\": \"%s\", \"requests\": %d, "
        "\"seed\": %llu, \"slo_s\": %.6g, \"mean_cpu_mc\": %.10g, "
        "\"p99_e2e_s\": %.10g, \"violation_rate\": %.10g, "
        "\"adapter_lookups\": %llu, \"adapter_miss_rate\": %.10g}\n",
        workload.name.c_str(), policy->name().c_str(), requests,
        static_cast<unsigned long long>(flags.seed), slo, result.mean_cpu(),
        result.e2e_percentile(99), result.violation_rate(),
        static_cast<unsigned long long>(stats.lookups()), stats.miss_rate());
    return 0;
  }
  std::printf("%s", render_table({"policy", "requests", "CPU (mc)",
                                  "P99 E2E (s)", ">SLO"},
                                 {{policy->name(), std::to_string(requests),
                                   fmt(result.mean_cpu(), 1),
                                   fmt(result.e2e_percentile(99), 3),
                                   fmt(100.0 * result.violation_rate(), 2) +
                                       "%"}})
                        .c_str());
  std::printf("adapter: %llu lookups, %.2f%% miss rate\n",
              static_cast<unsigned long long>(stats.lookups()),
              100.0 * stats.miss_rate());
  return 0;
}

/// Loads replay gaps for `--trace`: a CSV path (one gap in seconds per
/// line; blank lines and a leading non-numeric header are skipped) or
/// "synth" for a synthesized production-shaped trace.
std::vector<double> load_trace_gaps(const std::string& source, double rate,
                                    std::uint64_t seed) {
  if (source == "synth") {
    return synthesize_interarrivals(4096, rate, seed);
  }
  std::istringstream in(read_file(source, "trace"));
  std::vector<double> gaps;
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    std::size_t used = 0;
    double gap = 0.0;
    try {
      gap = std::stod(line, &used);
    } catch (const std::exception&) {
      used = std::string::npos;
    }
    if (used != line.size()) {
      // Tolerate one header line; anything else is a malformed trace.
      if (gaps.empty()) continue;
      throw_invalid("trace line is not a number: " + line);
    }
    gaps.push_back(gap);
  }
  require(!gaps.empty(), "trace file holds no inter-arrival gaps");
  return gaps;
}

/// Assembles the FleetConfig described by the shared workload flags —
/// the one config-building path for `fleet` and `frontier`, so a tenant
/// mix, policy deal, chaos spec, or flash window means the same thing to
/// both commands.
FleetConfig build_fleet_config(const Flags& flags) {
  FleetConfig config;
  const bool mixed = flags.arrivals == "mixed";
  ArrivalKind kind = ArrivalKind::Poisson;
  if (!mixed) {
    try {
      kind = arrival_kind_from_string(flags.arrivals);
    } catch (const std::invalid_argument&) {
      // arrival_kind_from_string owns the kind list; the CLI only layers
      // the "mixed" pseudo-kind on top, so remind the user it exists.
      throw_invalid("unknown --arrivals (one of the arrival kinds, or "
                    "mixed): " +
                    flags.arrivals);
    }
  }
  if (kind == ArrivalKind::Trace && flags.trace.empty()) {
    throw_invalid("--arrivals trace needs --trace <csv-path|synth>");
  }
  if (!flags.trace.empty() && !mixed && kind != ArrivalKind::Trace) {
    // Conflicting requests must error, not silently let the trace win.
    throw_invalid("--trace replaces every tenant's arrival process; it "
                  "cannot be combined with --arrivals " +
                  flags.arrivals);
  }
  // Unknown names (and empty segments) are usage errors listing the valid
  // set — never a silent fallback.
  const Args policies = flags.policy ? split(*flags.policy, ',') : Args{};
  for (const std::string& name : policies) {
    if (!is_fleet_policy(name)) {
      throw UsageError("unknown policy '" + name +
                       "' (valid: " + fleet_policy_list() + ")");
    }
  }
  config.tenants =
      make_tenant_mix(flags.tenants, flags.requests, flags.rate,
                      flags.trace.empty() ? kind : ArrivalKind::Poisson,
                      mixed && flags.trace.empty(), policies);
  if (flags.contention_alpha > 0.0) {
    for (auto& tenant : config.tenants) {
      tenant.contention_alpha = flags.contention_alpha;
    }
  }
  if (!flags.conc.empty()) {
    // Levels are dealt round-robin like --policy.
    std::vector<Concurrency> concs;
    for (const std::string& level : split(flags.conc, ',')) {
      concs.push_back(parse_as<int>(level, "--conc", kAtLeastOne));
    }
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
      // Clamp to the workload's batching ceiling (VA's FE/ICO stages are
      // non-batchable, so a mixed sweep would otherwise be unrunnable).
      config.tenants[t].concurrency =
          std::min(concs[t % concs.size()],
                   workload_by_name(config.tenants[t].workload)
                       .max_concurrency);
    }
  }
  if (!flags.trace.empty()) {
    // Every tenant replays the same recorded rhythm, rescaled to its own
    // staggered rate so the mix stays heterogeneous.
    const std::vector<double> gaps =
        load_trace_gaps(flags.trace, flags.rate, flags.seed);
    double total = 0.0;
    for (double gap : gaps) total += gap;
    const double trace_rate = static_cast<double>(gaps.size()) / total;
    for (auto& tenant : config.tenants) {
      const double scale = trace_rate / tenant.arrivals.rate;
      tenant.arrivals.kind = ArrivalKind::Trace;
      tenant.arrivals.trace_gaps = gaps;
      for (double& gap : tenant.arrivals.trace_gaps) gap *= scale;
    }
  }
  config.shards = flags.shards;
  config.stream_metrics = flags.stream;
  config.policy_catalog.hints_dir = flags.hints_dir;
  config.seed = flags.seed;
  config.cluster.nodes = flags.nodes;
  config.cluster.node_capacity_mc = flags.node_mc;
  config.epoch_s = flags.epoch_s;
  config.autoscale.enabled = flags.autoscale;
  if (flags.chaos) {
    try {
      config.chaos = chaos_config_from_spec(*flags.chaos);
    } catch (const std::invalid_argument&) {
      // Same contract as --policy: an enumerable argument outside its
      // valid set is a usage error.
      throw UsageError(
          "unknown --chaos '" + *flags.chaos +
          "' (a comma-separated subset of failures, preemption, storms, "
          "flash — or all, or none)");
    }
    if (flags.chaos_seed) config.chaos.seed = *flags.chaos_seed;
    if (config.chaos.needs_epochs() && flags.epoch_s == kNoEpochs) {
      throw_invalid(
          "--chaos failures/preemption/storms act at epoch barriers; add "
          "a finite --epoch-s");
    }
  } else if (flags.chaos_seed) {
    throw_invalid("--chaos-seed needs --chaos");
  }
  if (!flags.flash.empty()) {
    if (config.chaos.flash_crowds) {
      throw_invalid("--flash cannot be combined with --chaos flash (the "
                    "chaos engine schedules its own windows)");
    }
    // "T0:T1:K" — the window itself is validated with the arrival spec in
    // run_fleet; only the shape and finiteness are checked here.
    const Args window = split(flags.flash, ':');
    if (window.size() != 3) {
      throw_invalid("--flash expects T0:T1:K (seconds, seconds, "
                    "multiplier): " +
                    flags.flash);
    }
    const double t0 = parse_as<double>(window[0], "--flash T0", kAny);
    const double t1 = parse_as<double>(window[1], "--flash T1", kAny);
    const double k = parse_as<double>(window[2], "--flash K", kAny);
    for (auto& tenant : config.tenants) {
      tenant.arrivals.flash_t0_s = t0;
      tenant.arrivals.flash_t1_s = t1;
      tenant.arrivals.flash_k = k;
    }
  }
  if (flags.obs_sample != 1 && flags.trace_out.empty()) {
    throw_invalid("--obs-sample only applies to span tracing; add "
                  "--trace-out <path>");
  }
  config.obs.trace = !flags.trace_out.empty();
  config.obs.timeline = !flags.obs_timeline.empty();
  config.obs.sample_every = flags.obs_sample;
  return config;
}

int cmd_fleet(const Flags& flags, const Args&) {
  const FleetConfig config = build_fleet_config(flags);
  if (!flags.shard_slice.empty() && !flags.merge_slices.empty()) {
    throw_invalid("--shard-slice (produce a blob) and --merge-slices "
                  "(consume blobs) are different modes; pick one");
  }
  if (!flags.shard_slice.empty()) {
    // Worker mode: one slice, one binary blob, no report.  The report
    // flags belong to the merge step.
    if (flags.result_bin.empty()) {
      throw_invalid("--shard-slice needs --result-bin <path>");
    }
    if (flags.json || !flags.trace_out.empty() ||
        !flags.obs_timeline.empty()) {
      throw_invalid("--shard-slice writes a binary slice blob; --json / "
                    "--trace-out / --obs-timeline apply to --merge-slices");
    }
    const Args range = split(flags.shard_slice, ':');
    if (range.size() != 2) {
      throw_invalid("--shard-slice expects LO:HI (half-open tenant range): " +
                    flags.shard_slice);
    }
    const int lo = parse_as<int>(range[0], "--shard-slice LO", kAny);
    const int hi = parse_as<int>(range[1], "--shard-slice HI", kAny);
    if (lo < 0 || hi <= lo) {
      throw_invalid("--shard-slice expects 0 <= LO < HI: " +
                    flags.shard_slice);
    }
    const std::vector<std::uint8_t> blob =
        encode_slice(run_fleet_slice(config, lo, hi));
    write_file(flags.result_bin,
               {reinterpret_cast<const char*>(blob.data()), blob.size()});
    return 0;
  }
  if (!flags.result_bin.empty()) {
    throw_invalid("--result-bin needs --shard-slice");
  }
  FleetResult result;
  if (!flags.merge_slices.empty()) {
    std::vector<FleetSliceOutcome> slices;
    slices.reserve(flags.merge_slices.size());
    for (const std::string& path : flags.merge_slices) {
      const std::string blob = read_file(path, "slice blob");
      slices.push_back(decode_slice(
          reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
    }
    result = merge_fleet_slices(config, std::move(slices));
  } else {
    result = run_fleet(config);
  }
  if (!flags.trace_out.empty()) {
    write_artifact(flags.trace_out, "--trace-out",
                   trace_to_chrome_json(result.obs.spans),
                   trace_to_csv(result.obs.spans));
  }
  if (!flags.obs_timeline.empty()) {
    write_artifact(flags.obs_timeline, "--obs-timeline",
                   timeline_to_json(result.obs.timeline),
                   timeline_to_csv(result.obs.timeline));
  }
  if (flags.json) {
    std::printf("%s", result.to_json().c_str());
    return 0;
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& t : result.tenants) {
    rows.push_back({t.name, t.policy, to_string(t.arrivals),
                    std::to_string(t.requests), fmt(t.slo, 1),
                    fmt(t.coresidency, 2), fmt(t.e2e_p50, 3),
                    fmt(t.e2e_p99, 3), fmt(t.mean_cpu_mc, 0),
                    fmt(100.0 * t.violation_rate, 1) + "%"});
  }
  rows.push_back({"FLEET", "-", "-", std::to_string(result.total_requests),
                  "-", "-", fmt(result.fleet_p50, 3), fmt(result.fleet_p99, 3),
                  fmt(result.fleet_mean_cpu_mc, 0),
                  fmt(100.0 * result.fleet_violation_rate, 1) + "%"});
  std::printf("%s", render_table({"tenant", "policy", "arrivals", "reqs",
                                  "SLO (s)", "co-res", "P50 (s)", "P99 (s)",
                                  "CPU (mc)", ">SLO"},
                                 rows)
                        .c_str());
  std::printf(
      "fleet: %d shards, %.2fs wall, cluster %.0f%% allocated, "
      "%d overcommitted pods\n",
      result.shards, result.wall_seconds, 100.0 * result.cluster_utilization,
      result.overcommitted_pods);
  if (result.epochs > 0) {
    std::printf(
        "control: %d epochs, %d nodes (final), +%d/-%d nodes autoscaled\n",
        result.epochs, result.final_nodes, result.nodes_added,
        result.nodes_removed);
  }
  if (result.chaos_enabled) {
    std::printf(
        "chaos: %d node failures (%d pods re-packed, %d stranded), "
        "%d preemption bursts (%d pods killed, %llu invocations re-queued), "
        "%d cold-start storms, %d flash windows\n",
        result.chaos.node_failures, result.chaos.displaced_pods,
        result.chaos.stranded_pods, result.chaos.preemption_bursts,
        result.chaos.preempted_pods,
        static_cast<unsigned long long>(result.chaos.requeued_invocations),
        result.chaos.storms, result.chaos.flash_windows);
  }
  return 0;
}

int cmd_frontier(const Flags& flags, const Args&) {
  if (!flags.step) {
    throw UsageError("frontier needs --step R (ramp increment in req/s)");
  }
  FrontierConfig config;
  config.fleet = build_fleet_config(flags);
  config.slo_target = flags.slo_target;
  config.step_rps = *flags.step;
  config.stop_rps = flags.stop.value_or(8.0 * *flags.step);
  config.bisect_iters = flags.bisect;

  const FrontierResult result = explore_frontier(config);

  // Artifacts first (confirmations on stderr), so --json keeps stdout as
  // one machine-readable object.
  if (!flags.json_out.empty()) write_file(flags.json_out, result.to_json());
  if (!flags.csv_out.empty()) write_file(flags.csv_out, result.to_csv());

  if (flags.json) {
    std::printf("%s", result.to_json().c_str());
    return 0;
  }
  std::vector<std::vector<std::string>> rows;
  for (const FrontierPoint& p : result.points) {
    rows.push_back({to_string(p.phase), fmt(p.offered_rps, 3),
                    fmt(p.achieved_rps, 3),
                    fmt(100.0 * p.slo_met, 2) + "%",
                    p.sustained ? "yes" : "no", fmt(p.p50_s, 3),
                    fmt(p.p99_s, 3), fmt(p.p999_s, 3)});
  }
  std::printf("%s",
              render_table({"phase", "offered r/s", "achieved r/s",
                            "SLO met", "sustained", "P50 (s)", "P99 (s)",
                            "P999 (s)"},
                           rows)
                  .c_str());
  if (result.censored_low) {
    std::printf(
        "frontier: no sustainable point found above %.6g req/s — the knee "
        "sits below the search floor (lower --step or raise --bisect)\n",
        result.knee_rps);
  } else if (result.censored_high) {
    std::printf(
        "frontier: knee >= %.6g req/s (censored at --stop; raise it to "
        "bracket the knee)\n",
        result.knee_rps);
  } else {
    std::printf(
        "frontier: knee at %.6g req/s under a %.4g%% SLO-met target "
        "(%zu points, base load %.6g req/s)\n",
        result.knee_rps, 100.0 * result.slo_target, result.points.size(),
        result.base_rps);
  }
  return 0;
}

struct CommandSpec {
  const char* name;
  unsigned bit;
  std::size_t min_args;  // positional argument count
  std::size_t max_args;
  const char* synopsis;
  int (*run)(const Flags&, const Args&);
};

const CommandSpec kCommands[] = {
    {"profile", kProfile, 2, 2, "<ia|va> <out-dir>", cmd_profile},
    {"synthesize", kSynthesize, 2, 4, "<ia|va> <out-dir> [weight] [conc]",
     cmd_synthesize},
    {"lookup", kLookup, 2, 2, "<hints.csv> <budget-ms>", cmd_lookup},
    {"serve", kServe, 1, 3, "<ia|va> [requests] [slo-seconds]", cmd_serve},
    {"fleet", kFleet, 0, 0, "[flags]", cmd_fleet},
    {"frontier", kFrontier, 0, 0, "--step R [flags]", cmd_frontier},
};

/// "--name ARG", as usage lines and help rows spell a flag.
std::string spelled(const FlagSpec& f) {
  return std::string(f.name) + (*f.arg ? " " : "") + f.arg;
}

/// "janus_cli <name> <synopsis>"; a command without a help section of its
/// own (every one but fleet and frontier) lists its flags inline.
std::string usage_line(const CommandSpec& c) {
  std::string line = std::string("janus_cli ") + c.name + " " + c.synopsis;
  if ((c.bit & kWorkload) != 0) return line;
  for (const FlagSpec& f : kFlags) {
    if ((f.commands & c.bit) != 0 && f.commands != kEvery) {
      line += " [" + spelled(f) + "]";
    }
  }
  return line;
}

/// The help rows of every listed flag whose command bits `pick` accepts.
template <class Pick>
std::string flag_rows(Pick pick) {
  const std::string indent(18, ' ');
  std::string text;
  for (const FlagSpec& f : kFlags) {
    if (*f.help == '\0' || !pick(f.commands)) continue;
    const std::string head = spelled(f);
    text += "  " + head +
            (head.size() < 16 ? std::string(16 - head.size(), ' ')
                              : "\n" + indent);
    for (const char* c = f.help; *c != '\0'; ++c) {
      text += *c;
      if (*c == '\n') text += indent;
    }
    text += '\n';
  }
  return text;
}

int print_help() {
  std::string text = "usage:\n";
  for (const CommandSpec& c : kCommands) text += "  " + usage_line(c) + "\n";
  text += "\nfleet flags (sharded multi-tenant simulation):\n";
  text += flag_rows([](unsigned c) { return (c & kFleet) && c != kEvery; });
  // The frontier header names the fleet flags it shares, wrapped.
  text += "\nfrontier flags (latency-throughput frontier explorer; accepts "
          "the\n";
  std::string line = "fleet workload flags above — ";
  for (const FlagSpec& f : kFlags) {
    if ((f.commands & kWorkload) != kWorkload || f.commands == kEvery) {
      continue;
    }
    if (line.size() + std::char_traits<char>::length(f.name) > 64) {
      text += line + "\n";
      line.clear();
    }
    line += std::string(f.name + 2) + "/";
  }
  line.pop_back();
  text += line + " — plus):\n";
  text += flag_rows([](unsigned c) { return c == kFrontier; });
  text += "\nglobal flags:\n";
  text += flag_rows([](unsigned c) { return c == kEvery; });
  text += "\n`janus_cli help` (or --help) prints this text.\n";
  const std::size_t at = text.find("%s");
  text.replace(at, 2, fleet_policy_list());
  std::fputs(text.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw UsageError("missing command (see janus_cli help)");
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help") return print_help();
    const auto command =
        std::find_if(std::begin(kCommands), std::end(kCommands),
                     [&](const CommandSpec& c) { return cmd == c.name; });
    if (command == std::end(kCommands)) {
      throw UsageError("unknown command '" + cmd + "' (see janus_cli help)");
    }
    Flags flags;
    Args pos;
    parse_flags(argc, argv, command->name, command->bit, flags, pos);
    if (flags.help) return print_help();
    if (!flags.log_level.empty()) {
      set_log_level(log_level_from_string(flags.log_level));
    }
    if (pos.size() < command->min_args || pos.size() > command->max_args) {
      throw UsageError("usage: " + usage_line(*command));
    }
    return command->run(flags, pos);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "janus_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "janus_cli: %s\n", e.what());
    return 1;
  }
}
