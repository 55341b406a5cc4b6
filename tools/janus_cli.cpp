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
//
// `serve` and `fleet` accept `--seed N` and `--json` so runs are
// scriptable: a fixed seed reproduces every simulation metric bit-for-bit
// (in the fleet JSON only wall_seconds and the obs phases,
// plan_wait_seconds and peak_pending, printed only when an obs pillar is
// on, are machine-dependent) and --json
// swaps the human tables for one machine-readable object on stdout.
//
// Everything runs against the built-in workload catalog; CSV files use the
// same schema as LatencyProfile/HintsTable::to_csv, so tables produced here
// can be loaded anywhere in the library.
#include <algorithm>
#include <cstdio>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
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

/// Usage-class error (exit 2, one line, no usage dump): the command was
/// understood but an enumerable argument was not in its valid set.
struct UnknownPolicyError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage(std::FILE* out = stderr) {
  std::fprintf(
      out,
      "usage:\n"
      "  janus_cli profile <ia|va> <out-dir>\n"
      "  janus_cli synthesize <ia|va> <out-dir> [weight] [conc]\n"
      "  janus_cli lookup <hints.csv> <budget-ms>\n"
      "  janus_cli serve <ia|va> [requests] [slo-seconds] [--seed N] "
      "[--json]\n"
      "  janus_cli fleet [flags]\n"
      "  janus_cli frontier --step R [flags]\n"
      "\n"
      "fleet flags (sharded multi-tenant simulation):\n"
      "  --tenants N     tenant count (default 8)\n"
      "  --requests N    requests per tenant (default 1000)\n"
      "  --shards N      simulation shards / threads (default 4)\n"
      "  --stream        streaming merge: fold each tenant's metrics the\n"
      "                  moment it completes and free its state — memory\n"
      "                  stays O(active tenants).  Per-tenant rows are\n"
      "                  dropped and fleet p50/p99 come from the merged\n"
      "                  histogram; every other metric is bit-identical\n"
      "  --conc N[,N..]  per-request concurrency, dealt round-robin over\n"
      "                  the tenants and clamped to each workload's\n"
      "                  batching ceiling (default 1)\n"
      "  --hints-dir D   load committed hints tables from D (written by\n"
      "                  `janus_cli synthesize`) instead of synthesizing\n"
      "                  in-process; missing tables still synthesize\n"
      "  --seed N        fleet seed; fixes every metric bit-for-bit\n"
      "  --rate R        base arrival rate, requests/s (default 10)\n"
      "  --arrivals K    poisson|mmpp|diurnal|trace|mixed (default mixed)\n"
      "  --trace P       replay inter-arrival gaps: P is a CSV path (one\n"
      "                  gap in seconds per line) or 'synth' for a\n"
      "                  synthesized production-shaped trace; implies\n"
      "                  --arrivals trace, loops when requests outnumber\n"
      "                  samples\n"
      "  --policy P[,P]  per-tenant sizing policies, dealt round-robin\n"
      "                  over the tenants (e.g. janus,orion,mean_based);\n"
      "                  one name = homogeneous fleet.  Valid (default\n"
      "                  fixed):\n"
      "                  %s\n"
      "                  Hints tables are synthesized once per (workload,\n"
      "                  policy) and shared read-only across tenants\n"
      "  --contention-alpha A\n"
      "                  scale every tenant's allocation by\n"
      "                  1 + A*(live co-residency - 1): policies react\n"
      "                  directly to the epoch feed (default 0 = off)\n"
      "  --nodes N       cluster node-pool size at plan time (default 16)\n"
      "  --node-mc N     node capacity in millicores (default 52000)\n"
      "  --epoch-s X     sim-seconds between cross-shard reconciliation\n"
      "                  barriers; 'inf' (default) plans once and freezes\n"
      "                  the packing, finite X closes the loop between\n"
      "                  observed pod counts and interference draws\n"
      "  --autoscale     grow/shrink the node pool from utilization at\n"
      "                  each epoch barrier (scale-out pays one epoch of\n"
      "                  latency; scale-in repacks displaced pods)\n"
      "  --trace-out P   record request spans and write them to P:\n"
      "                  .json = Chrome/Perfetto trace_event format (open\n"
      "                  at ui.perfetto.dev), .csv = flat rows.  Sim-time\n"
      "                  timestamps: byte-identical at any shard count\n"
      "  --obs-sample N  record every Nth request (by request index;\n"
      "                  default 1 = all); needs --trace-out\n"
      "  --obs-timeline P\n"
      "                  write the per-(epoch, tenant, stage) control-plane\n"
      "                  timeline to P (.json or .csv); rows only appear\n"
      "                  when --epoch-s is finite\n"
      "  --chaos SPEC    deterministic chaos injection: a comma-separated\n"
      "                  subset of failures,preemption,storms,flash — or\n"
      "                  all, or none.  failures/preemption/storms act at\n"
      "                  epoch barriers and need a finite --epoch-s; the\n"
      "                  schedule is a pure function of (--seed,\n"
      "                  --chaos-seed, tenant set), bit-identical at any\n"
      "                  --shards\n"
      "  --chaos-seed N  chaos schedule seed (default 7), mixed with\n"
      "                  --seed so one workload can face many schedules;\n"
      "                  needs --chaos\n"
      "  --flash T0:T1:K multiply every tenant's arrival rate by K over\n"
      "                  [T0, T1) sim-seconds (composes with every\n"
      "                  --arrivals kind; cannot be combined with --chaos\n"
      "                  flash, which schedules its own windows)\n"
      "  --shard-slice LO:HI\n"
      "                  worker mode: plan the whole fleet but simulate\n"
      "                  only tenants [LO, HI) and write the slice blob to\n"
      "                  --result-bin (static path only; see\n"
      "                  --merge-slices)\n"
      "  --result-bin P  slice blob output path (needs --shard-slice)\n"
      "  --merge-slices P\n"
      "                  repeatable: decode the named slice blobs and\n"
      "                  merge them (under this command line's fleet\n"
      "                  config) into the ordinary fleet report —\n"
      "                  bit-identical to an in-process run\n"
      "  --json          machine-readable result on stdout\n"
      "\n"
      "frontier flags (latency-throughput frontier explorer; accepts the\n"
      "fleet workload flags above — tenants/requests/shards/\n"
      "stream/conc/hints-dir/seed/rate/arrivals/trace/policy/\n"
      "contention-alpha/nodes/node-mc/epoch-s/autoscale/chaos/chaos-seed/\n"
      "flash — plus):\n"
      "  --step R        ramp increment in fleet req/s (required > 0):\n"
      "                  points R, 2R, ... run until the SLO-met target is\n"
      "                  first missed, then bisection pins the knee\n"
      "  --stop R        ramp ceiling in req/s (default 8x --step); every\n"
      "                  point sustaining marks the knee censored-high\n"
      "  --slo-target F  fraction of requests that must meet their SLO for\n"
      "                  a point to count as sustained (default 0.95)\n"
      "  --bisect N      bisection iterations inside the bracketed step\n"
      "                  (default 6); knee resolution is step / 2^N\n"
      "  --json-out P    write the frontier artifact (points + knee) as\n"
      "                  JSON to P\n"
      "  --csv-out P     write the per-point frontier table as CSV to P\n"
      "\n"
      "global flags:\n"
      "  --log-level L   stderr diagnostics: debug|info|warn|error|off\n"
      "                  (default warn)\n"
      "\n"
      "`janus_cli help` (or --help) prints this text.\n",
      fleet_policy_list().c_str());
  return out == stderr ? 2 : 0;
}

/// Splits argv into positional arguments and the scriptability flags
/// shared by serve/fleet.  `seen` records which flags appeared so each
/// command can reject the ones it does not consume — a flag that parses
/// but silently does nothing is worse than an error.
struct Flags {
  std::uint64_t seed = 2026;
  bool json = false;
  bool help = false;
  int tenants = 8;
  int requests = 1000;  // per tenant; any explicit non-positive value errors
  int shards = 4;
  bool stream = false;
  std::string conc;         // per-tenant concurrency list; empty = all 1
  std::string hints_dir;    // committed hints CSVs; empty = synthesize
  std::string shard_slice;  // "LO:HI" worker range; empty = whole fleet
  std::string result_bin;   // slice blob output path (with --shard-slice)
  std::vector<std::string> merge_slices;  // slice blobs to merge
  double rate = 10.0;
  std::string arrivals = "mixed";
  std::string trace;  // CSV path or "synth"; empty = no trace replay
  std::string policy;  // comma-separated catalog names; empty = all fixed
  double contention_alpha = 0.0;
  int nodes = 16;
  int node_mc = 52000;
  double epoch_s = 0.0;  // 0 = not set -> kNoEpochs (plan once)
  bool autoscale = false;
  std::string trace_out;     // span artifact path; empty = tracing off
  std::string obs_timeline;  // timeline artifact path; empty = off
  int obs_sample = 1;
  std::string chaos;         // chaos family spec; empty = off
  std::uint64_t chaos_seed = 7;
  std::string flash;         // "T0:T1:K" window; empty = off
  double slo_target = 0.95;  // frontier: sustained = SLO-met >= this
  double step = 0.0;         // frontier ramp increment (required there)
  double stop = 0.0;         // frontier ramp ceiling; 0 = 8 * step
  int bisect = 6;            // frontier bisection iterations
  std::string json_out;      // frontier JSON artifact path; empty = off
  std::string csv_out;       // frontier CSV artifact path; empty = off
  std::string log_level;  // empty = leave the library default (warn)
  std::vector<std::string> seen;
};

/// Strict numeric parsing: the whole token must be consumed, so typos like
/// "4x" error instead of silently truncating.
int parse_int(const std::string& text, const char* flag) {
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != text.size()) {
    throw_invalid(std::string(flag) + " expects an integer: " + text);
  }
  return v;
}

double parse_double(const std::string& text, const char* flag) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != text.size() || std::isnan(v)) {
    throw_invalid(std::string(flag) + " expects a number: " + text);
  }
  return v;
}

bool parse_flags(int argc, char** argv, int first, Flags& flags,
                 std::vector<std::string>& positional) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* what) -> std::string {
      if (i + 1 >= argc) throw_invalid(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--help") {
      flags.help = true;
    } else if (arg == "--autoscale") {
      flags.autoscale = true;
    } else if (arg == "--trace") {
      flags.trace = value("--trace");
    } else if (arg == "--trace-out") {
      flags.trace_out = value("--trace-out");
    } else if (arg == "--obs-timeline") {
      flags.obs_timeline = value("--obs-timeline");
    } else if (arg == "--obs-sample") {
      flags.obs_sample = parse_int(value("--obs-sample"), "--obs-sample");
      if (flags.obs_sample < 1) {
        throw_invalid("--obs-sample expects an integer >= 1");
      }
    } else if (arg == "--log-level") {
      flags.log_level = value("--log-level");
      // Validate and apply immediately: the level governs diagnostics from
      // everything that runs after parsing, for every command.
      set_log_level(log_level_from_string(flags.log_level));
    } else if (arg == "--policy") {
      flags.policy = value("--policy");
    } else if (arg == "--contention-alpha") {
      flags.contention_alpha =
          parse_double(value("--contention-alpha"), "--contention-alpha");
      if (flags.contention_alpha < 0.0) {
        throw_invalid("--contention-alpha expects a number >= 0");
      }
    } else if (arg == "--nodes") {
      flags.nodes = parse_int(value("--nodes"), "--nodes");
    } else if (arg == "--node-mc") {
      flags.node_mc = parse_int(value("--node-mc"), "--node-mc");
    } else if (arg == "--epoch-s") {
      const std::string text = value("--epoch-s");
      if (text == "inf" || text == "infinity") {
        flags.epoch_s = 0.0;  // explicit "never reconcile"
      } else {
        flags.epoch_s = parse_double(text, "--epoch-s");
        if (flags.epoch_s <= 0.0) {
          throw_invalid("--epoch-s expects a positive number or 'inf': " +
                        text);
        }
      }
    } else if (arg == "--seed") {
      // stoull happily wraps "-1" into a huge unsigned value; reject
      // anything that is not a plain decimal so typos surface.
      const std::string text = value("--seed");
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        throw_invalid("--seed expects a non-negative integer: " + text);
      }
      flags.seed = std::stoull(text);
    } else if (arg == "--chaos") {
      flags.chaos = value("--chaos");
    } else if (arg == "--chaos-seed") {
      const std::string text = value("--chaos-seed");
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        throw_invalid("--chaos-seed expects a non-negative integer: " + text);
      }
      flags.chaos_seed = std::stoull(text);
    } else if (arg == "--flash") {
      flags.flash = value("--flash");
    } else if (arg == "--tenants") {
      flags.tenants = parse_int(value("--tenants"), "--tenants");
    } else if (arg == "--requests") {
      flags.requests = parse_int(value("--requests"), "--requests");
    } else if (arg == "--shards") {
      flags.shards = parse_int(value("--shards"), "--shards");
    } else if (arg == "--stream") {
      flags.stream = true;
    } else if (arg == "--conc") {
      flags.conc = value("--conc");
    } else if (arg == "--hints-dir") {
      flags.hints_dir = value("--hints-dir");
    } else if (arg == "--shard-slice") {
      flags.shard_slice = value("--shard-slice");
    } else if (arg == "--result-bin") {
      flags.result_bin = value("--result-bin");
    } else if (arg == "--merge-slices") {
      // Repeatable: --merge-slices a.bin --merge-slices b.bin ...
      flags.merge_slices.push_back(value("--merge-slices"));
    } else if (arg == "--rate") {
      flags.rate = parse_double(value("--rate"), "--rate");
    } else if (arg == "--slo-target") {
      flags.slo_target = parse_double(value("--slo-target"), "--slo-target");
      if (flags.slo_target <= 0.0 || flags.slo_target > 1.0) {
        throw_invalid("--slo-target expects a fraction in (0, 1]");
      }
    } else if (arg == "--step") {
      flags.step = parse_double(value("--step"), "--step");
      if (flags.step <= 0.0) throw_invalid("--step expects a number > 0");
    } else if (arg == "--stop") {
      flags.stop = parse_double(value("--stop"), "--stop");
      if (flags.stop <= 0.0) throw_invalid("--stop expects a number > 0");
    } else if (arg == "--bisect") {
      flags.bisect = parse_int(value("--bisect"), "--bisect");
      if (flags.bisect < 0) throw_invalid("--bisect expects an integer >= 0");
    } else if (arg == "--json-out") {
      flags.json_out = value("--json-out");
    } else if (arg == "--csv-out") {
      flags.csv_out = value("--csv-out");
    } else if (arg == "--arrivals") {
      flags.arrivals = value("--arrivals");
    } else if (arg.size() > 1 && arg[0] == '-' &&
               !std::isdigit(static_cast<unsigned char>(arg[1])) &&
               arg[1] != '.') {
      // "-1" / "-0.5" are negative numeric positionals (e.g. serve's
      // [slo] falls back to the workload default when <= 0), not flags.
      std::fprintf(stderr, "janus_cli: unknown flag %s\n", arg.c_str());
      return false;
    } else {
      positional.push_back(arg);
      continue;
    }
    flags.seen.push_back(arg);
  }
  return true;
}

/// True when every flag the user passed is in `allowed`; complains about
/// the first one that is not.
bool flags_allowed(const Flags& flags,
                   std::initializer_list<const char*> allowed) {
  for (const auto& flag : flags.seen) {
    bool ok = false;
    for (const char* a : allowed) ok = ok || flag == a;
    if (!ok) {
      std::fprintf(stderr, "janus_cli: flag %s is not valid for this command\n",
                   flag.c_str());
      return false;
    }
  }
  return true;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw_invalid("cannot open for write: " + path);
  out << text;
  std::printf("wrote %s\n", path.c_str());
}

/// True when `path` ends in `suffix` (artifact format dispatch).
bool ends_with(const std::string& path, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return path.size() >= len &&
         path.compare(path.size() - len, len, suffix) == 0;
}

/// Writes an observability artifact, choosing the format by extension.
/// The confirmation goes to *stderr*: with --json the artifact write must
/// not corrupt the single machine-readable object on stdout.
void write_artifact(const std::string& path, const char* what,
                    const std::string& json, const std::string& csv) {
  if (!ends_with(path, ".json") && !ends_with(path, ".csv")) {
    throw_invalid(std::string(what) +
                  " path must end in .json or .csv: " + path);
  }
  const std::string& text = ends_with(path, ".json") ? json : csv;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw_invalid("cannot open for write: " + path);
  out << text;
  std::fprintf(stderr, "janus_cli: wrote %s (%zu bytes)\n", path.c_str(),
               text.size());
}

int cmd_profile(const std::string& name, const std::string& dir) {
  const WorkloadSpec workload = workload_by_name(name);
  const auto profiles =
      profile_workload(workload, default_profiler_config(workload));
  for (const auto& profile : profiles) {
    write_text(dir + "/" + workload.name + "_" + profile.function_name() +
                   "_profile.csv",
               profile.to_csv());
  }
  return 0;
}

int cmd_synthesize(const std::string& name, const std::string& dir,
                   double weight, Concurrency conc) {
  const WorkloadSpec workload = workload_by_name(name);
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
    write_text(dir + "/" +
                   hints_bundle_filename(workload.name, conc,
                                         config.exploration, j),
               bundle.suffix_tables[j].to_csv());
  }
  return 0;
}

int cmd_lookup(const std::string& path, BudgetMs budget) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_invalid("cannot open: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const HintsTable table = HintsTable::from_csv(text);
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

int cmd_serve(const std::string& name, int requests, Seconds slo,
              const Flags& flags) {
  const WorkloadSpec workload = workload_by_name(name);
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
  std::ifstream in(source, std::ios::binary);
  if (!in) throw_invalid("cannot open trace: " + source);
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

/// Splits "--policy janus,orion,mean_based" into catalog names.  Unknown
/// names (and empty segments) are rejected with a one-line error listing
/// the valid set — exit 2, never a silent fallback.
std::vector<std::string> parse_policies(const std::string& text) {
  // Manual split (not getline): a trailing comma must yield an empty last
  // segment and error like any other bad name, not vanish at EOF.
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string cur = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!is_fleet_policy(cur)) {
      throw UnknownPolicyError("janus_cli: unknown policy '" + cur +
                               "' (valid: " + fleet_policy_list() + ")");
    }
    out.push_back(cur);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Splits "--conc 1,4,8" into per-tenant concurrency levels (each >= 1),
/// dealt round-robin like --policy.
std::vector<Concurrency> parse_concs(const std::string& text) {
  std::vector<Concurrency> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string cur = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const int conc = parse_int(cur, "--conc");
    if (conc < 1) throw_invalid("--conc levels must be >= 1: " + cur);
    out.push_back(conc);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parses "--shard-slice LO:HI" into a half-open tenant range.
std::pair<std::size_t, std::size_t> parse_slice(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    throw_invalid("--shard-slice expects LO:HI (half-open tenant range): " +
                  text);
  }
  const int lo = parse_int(text.substr(0, colon), "--shard-slice LO");
  const int hi = parse_int(text.substr(colon + 1), "--shard-slice HI");
  if (lo < 0 || hi <= lo) {
    throw_invalid("--shard-slice expects 0 <= LO < HI: " + text);
  }
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

std::vector<std::uint8_t> read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_invalid("cannot open slice blob: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return std::vector<std::uint8_t>(text.begin(), text.end());
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
  // Keyed off the *presence* of --policy, not the value: `--policy ""`
  // must error like any other invalid name, not fall back to fixed.
  const bool policy_given =
      std::find(flags.seen.begin(), flags.seen.end(), "--policy") !=
      flags.seen.end();
  const std::vector<std::string> policies =
      policy_given ? parse_policies(flags.policy)
                   : std::vector<std::string>{};
  // Bad values (e.g. --requests 0) error in make_tenant_mix rather than
  // silently falling back to a default.
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
    const std::vector<Concurrency> concs = parse_concs(flags.conc);
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
  if (flags.epoch_s > 0.0) config.epoch_s = flags.epoch_s;
  config.autoscale.enabled = flags.autoscale;
  const bool chaos_seed_given =
      std::find(flags.seen.begin(), flags.seen.end(), "--chaos-seed") !=
      flags.seen.end();
  const bool chaos_given =
      std::find(flags.seen.begin(), flags.seen.end(), "--chaos") !=
      flags.seen.end();
  // Keyed on flag presence, not spec emptiness: `--chaos ""` must be the
  // one-line usage error (chaos_config_from_spec rejects empty specs),
  // never a silent calm run.
  if (chaos_given) {
    try {
      config.chaos = chaos_config_from_spec(flags.chaos);
    } catch (const std::invalid_argument&) {
      // Same contract as --policy: an enumerable argument outside its
      // valid set is a one-line usage-class error, exit 2.
      throw UnknownPolicyError(
          "janus_cli: unknown --chaos '" + flags.chaos +
          "' (a comma-separated subset of failures, preemption, storms, "
          "flash — or all, or none)");
    }
    config.chaos.seed = flags.chaos_seed;
    if (config.chaos.needs_epochs() && flags.epoch_s <= 0.0) {
      throw_invalid(
          "--chaos failures/preemption/storms act at epoch barriers; add "
          "a finite --epoch-s");
    }
  } else if (chaos_seed_given) {
    throw_invalid("--chaos-seed needs --chaos");
  }
  if (!flags.flash.empty()) {
    if (config.chaos.flash_crowds) {
      throw_invalid("--flash cannot be combined with --chaos flash (the "
                    "chaos engine schedules its own windows)");
    }
    // "T0:T1:K" — window bounds validated by make_arrivals in run_fleet;
    // only the shape is parsed here.
    const std::size_t c1 = flags.flash.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos
                                : flags.flash.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw_invalid("--flash expects T0:T1:K (seconds, seconds, "
                    "multiplier): " +
                    flags.flash);
    }
    const double t0 = parse_double(flags.flash.substr(0, c1), "--flash T0");
    const double t1 =
        parse_double(flags.flash.substr(c1 + 1, c2 - c1 - 1), "--flash T1");
    const double k = parse_double(flags.flash.substr(c2 + 1), "--flash K");
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

int cmd_fleet(const Flags& flags) {
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
    const auto [lo, hi] = parse_slice(flags.shard_slice);
    const FleetSliceOutcome slice = run_fleet_slice(config, lo, hi);
    const std::vector<std::uint8_t> blob = encode_slice(slice);
    std::ofstream out(flags.result_bin, std::ios::binary);
    if (!out) throw_invalid("cannot open for write: " + flags.result_bin);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out.good()) throw_invalid("short write: " + flags.result_bin);
    std::fprintf(stderr, "janus_cli: wrote slice [%zu, %zu) to %s (%zu "
                 "bytes)\n",
                 lo, hi, flags.result_bin.c_str(), blob.size());
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
      slices.push_back(decode_slice(read_binary(path)));
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

int cmd_frontier(const Flags& flags) {
  if (flags.step <= 0.0) {
    // Usage-class error (exit 2, one line), like an unknown policy: the
    // command line is wrong, not the run.
    std::fprintf(stderr,
                 "janus_cli: frontier needs --step R (ramp increment in "
                 "req/s)\n");
    return 2;
  }
  FrontierConfig config;
  config.fleet = build_fleet_config(flags);
  config.slo_target = flags.slo_target;
  config.step_rps = flags.step;
  config.stop_rps = flags.stop > 0.0 ? flags.stop : 8.0 * flags.step;
  config.bisect_iters = flags.bisect;

  const FrontierResult result = explore_frontier(config);

  // Artifacts first (confirmations on stderr), so --json keeps stdout as
  // one machine-readable object.
  const auto write_out = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw_invalid("cannot open for write: " + path);
    out << text;
    std::fprintf(stderr, "janus_cli: wrote %s (%zu bytes)\n", path.c_str(),
                 text.size());
  };
  if (!flags.json_out.empty()) write_out(flags.json_out, result.to_json());
  if (!flags.csv_out.empty()) write_out(flags.csv_out, result.to_csv());

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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    Flags flags;
    std::vector<std::string> pos;
    if (cmd == "help" || cmd == "--help") return usage(stdout);
    if (!parse_flags(argc, argv, 2, flags, pos)) return usage();
    if (flags.help) return usage(stdout);
    if (cmd == "profile" && pos.size() == 2) {
      if (!flags_allowed(flags, {"--log-level"})) return usage();
      return cmd_profile(pos[0], pos[1]);
    }
    if (cmd == "synthesize" && pos.size() >= 2) {
      if (!flags_allowed(flags, {"--log-level"})) return usage();
      const double weight = pos.size() > 2 ? std::stod(pos[2]) : 1.0;
      const Concurrency conc = pos.size() > 3 ? std::stoi(pos[3]) : 1;
      return cmd_synthesize(pos[0], pos[1], weight, conc);
    }
    if (cmd == "lookup" && pos.size() == 2) {
      if (!flags_allowed(flags, {"--log-level"})) return usage();
      return cmd_lookup(pos[0], std::stoll(pos[1]));
    }
    if (cmd == "serve" && pos.size() >= 1) {
      if (!flags_allowed(flags, {"--seed", "--json", "--log-level"})) {
        return usage();
      }
      const int requests = pos.size() > 1 ? std::stoi(pos[1]) : 500;
      const Seconds slo = pos.size() > 2 ? std::stod(pos[2]) : 0.0;
      return cmd_serve(pos[0], requests, slo, flags);
    }
    if (cmd == "fleet" && pos.empty()) {
      if (!flags_allowed(flags, {"--tenants", "--requests", "--shards",
                                 "--stream", "--conc",
                                 "--hints-dir", "--shard-slice",
                                 "--result-bin", "--merge-slices",
                                 "--seed", "--rate", "--arrivals", "--trace",
                                 "--nodes", "--node-mc", "--epoch-s",
                                 "--autoscale", "--policy",
                                 "--contention-alpha", "--json",
                                 "--trace-out", "--obs-timeline",
                                 "--obs-sample", "--chaos", "--chaos-seed",
                                 "--flash", "--log-level"})) {
        return usage();
      }
      return cmd_fleet(flags);
    }
    if (cmd == "frontier" && pos.empty()) {
      if (!flags_allowed(flags, {"--tenants", "--requests", "--shards",
                                 "--stream", "--conc",
                                 "--hints-dir", "--seed", "--rate",
                                 "--arrivals", "--trace", "--nodes",
                                 "--node-mc", "--epoch-s", "--autoscale",
                                 "--policy", "--contention-alpha", "--chaos",
                                 "--chaos-seed", "--flash", "--slo-target",
                                 "--step", "--stop", "--bisect", "--json",
                                 "--json-out", "--csv-out", "--log-level"})) {
        return usage();
      }
      return cmd_frontier(flags);
    }
  } catch (const UnknownPolicyError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "janus_cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
