// Front-door benchmark harness. One invocation runs one workload:
//
//   perfbench --workload shelf|metro|serving --seed N --seconds S
//             --trace 0|1 [--golden FILE] [--write-golden] [--work-dir DIR]
//
// Order of work: generate the trace from the seed; push it into a fresh
// in-process EspProcessor (the reference) and, on the default seed, check
// the reference digest against the committed golden digest; run one
// untimed front-door pass and compare it tick for tick with the reference;
// only then time. With --trace 0 it times closed-loop and paced passes and
// prints the end-to-end metrics; with --trace 1 it adds timing decorators
// and prints the per-layer metrics. Every timed pass is checked
// against the reference too. The last stdout line is one JSON object; the
// exit code is non-zero on any output mismatch or failure.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "harness/digest.h"
#include "harness/rig.h"
#include "harness/workloads.h"

namespace esp::perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 1;
/// Closed-loop passes fill --seconds minus the paced pass, whose length is
/// fixed by the trace and the offered rate, with at least this many passes.
constexpr int kMinClosedPasses = 3;
/// Extra set-ups (no traffic) so setup_s is a median of many samples.
constexpr size_t kMinSetupSamples = 10;
constexpr size_t kMaxSetupSamples = 100;
constexpr double kSetupBudgetS = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string golden;
  bool write_golden = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (!value(&v)) return false;
      args->trace = v == "1";
    } else if (arg == "--golden") {
      if (!value(&args->golden)) return false;
    } else if (arg == "--write-golden") {
      args->write_golden = true;
    } else if (arg == "--work-dir") {
      if (!value(&args->work_dir)) return false;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ReadingsPerSecond(const PassResult& pass) {
  const double applied = static_cast<double>(pass.ingest.readings_applied);
  return pass.wall_s > 0 ? applied / pass.wall_s : 0;
}

/// Golden file lines: "<workload> <seed> <run digest hex>".
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, seed, digest;
    if (line.empty() || line[0] == '#' ||
        !(fields >> workload >> seed >> digest)) {
      continue;
    }
    golden[workload + " " + seed] = digest;
  }
  return golden;
}

bool WriteGolden(const std::string& path,
                 const std::map<std::string, std::string>& golden) {
  std::ofstream out(path, std::ios::trunc);
  out << "# Reference run digests on the default seed, one per workload.\n"
         "# Regenerate with: python3 perfbench/run.py --workload W --seed 1 "
         "--write-golden\n";
  for (const auto& [key, digest] : golden) out << key << " " << digest << "\n";
  return static_cast<bool>(out);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every metric, printed by name with its unit, then the result line.
void Report(const std::vector<Metric>& metrics, bool correct,
            int64_t attempted, int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

/// Tracks attempts and failures across every pass of the run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Add(const WorkloadTrace& trace, const PassResult& pass,
           const char* what) {
    attempted += static_cast<int64_t>(trace.readings + trace.epochs.size());
    failed += pass.failed;
    if (pass.failed != 0) {
      correct = false;
      std::printf("FAIL %s pass: %lld failed (%lld mismatching ticks, %lld "
                  "client errors, %lld rejected, %lld shed, %lld/%zu ticks) "
                  "%s\n",
                  what, static_cast<long long>(pass.failed),
                  static_cast<long long>(pass.mismatches),
                  static_cast<long long>(pass.client_errors),
                  static_cast<long long>(pass.ingest.rejected_readings),
                  static_cast<long long>(pass.ingest.shed_readings),
                  static_cast<long long>(pass.ticks_emitted),
                  trace.epochs.size(), pass.first_error.c_str());
    }
  }
};

void PrintBacklog(const WorkloadTrace& trace, const PassResult& paced) {
  const size_t n = paced.tick_latency_ms.size();
  const size_t tenth = std::max<size_t>(1, n / 10);
  const std::vector<double>& all = paced.tick_latency_ms;
  const auto span = static_cast<std::ptrdiff_t>(tenth);
  const std::vector<double> first(all.begin(), all.begin() + span);
  const std::vector<double> last(all.end() - span, all.end());
  const double first_p50 = Median(first);
  const double last_p50 = Median(last);
  const int64_t due = static_cast<int64_t>(trace.epochs.size());
  // A backlog that grows makes the last ticks wait behind the earlier ones.
  const bool grew = last_p50 > 2 * first_p50 + 1.0 ||
                    paced.emitted_at_last_due + 10 < due;
  std::printf("paced: %.1f ticks/s offered (%.0f readings/s), %lld/%lld ticks "
              "emitted when the last was due, p50 first tenth %.3f ms, last "
              "tenth %.3f ms: backlog %s; p50 %.3f p99 %.3f ms, generator late "
              "p99 %.3f ms\n",
              trace.info.paced_ticks_per_s,
              trace.info.paced_ticks_per_s *
                  static_cast<double>(trace.readings) /
                  static_cast<double>(due),
              static_cast<long long>(paced.emitted_at_last_due),
              static_cast<long long>(due), first_p50, last_p50,
              grew ? "GREW" : "steady", Quantile(paced.tick_latency_ms, 0.5),
              Quantile(paced.tick_latency_ms, 0.99),
              Quantile(paced.gen_late_ms, 0.99));
}

// --- Per-layer attribution ---------------------------------------------------

struct LayerSums {
  LayerTotals all[kNumLayers];
  const ThreadSpans* loop = nullptr;  // The server loop thread's buffer.
};

LayerSums SumLayers(const Tracer& tracer) {
  LayerSums sums;
  for (const ThreadSpans* spans : tracer.threads()) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      const LayerTotals t = spans->Sum(static_cast<Layer>(l));
      sums.all[l].total_ns += t.total_ns;
      sums.all[l].self_ns += t.self_ns;
      sums.all[l].calls += t.calls;
    }
    if (spans->Sum(Layer::kSink).calls > 0) sums.loop = spans;
  }
  return sums;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Per-layer metrics of one traced closed-loop pass.
std::map<std::string, double> LayerMetrics(const WorkloadTrace& trace,
                                           const PassResult& pass) {
  std::map<std::string, double> m;
  const LayerSums sums = SumLayers(*pass.tracer);
  auto total = [&](Layer l) {
    return sums.all[static_cast<size_t>(l)].total_ns;
  };
  auto self = [&](Layer l) {
    return sums.all[static_cast<size_t>(l)].self_ns;
  };
  auto count = [](auto v) { return static_cast<double>(v); };
  const bool recovery = RecoveryFor(trace, "").has_value();
  const int64_t loop_register =
      sums.loop ? sums.loop->Sum(Layer::kRegister).total_ns : 0;

  m["net.client.busy_ms"] = Ms(total(Layer::kClient));
  const int64_t sink_self = self(Layer::kSink);
  m["recovery.self_ms"] = recovery ? Ms(sink_self) : 0;
  m["processor.push_self_ms"] = Ms(self(Layer::kEnginePush));
  m["processor.tick_self_ms"] = Ms(self(Layer::kEngineTick));
  const char* kinds[] = {"point", "smooth", "merge", "arbitrate", "virtualize"};
  const Layer layers[] = {Layer::kPoint, Layer::kSmooth, Layer::kMerge,
                          Layer::kArbitrate, Layer::kVirtualize};
  int64_t stage_ns = 0;
  for (size_t k = 0; k < 5; ++k) {
    const std::string prefix = std::string("stage.") + kinds[k];
    const LayerCounters::Stage& c = pass.counters.stages[k];
    m[prefix + ".ms"] = Ms(total(layers[k]));
    m[prefix + ".calls"] = count(c.calls);
    m[prefix + ".tuples_in"] = count(c.tuples_in);
    m[prefix + ".tuples_out"] = count(c.tuples_out);
    stage_ns += total(layers[k]);
  }
  m["query_serving.register_ms"] = Ms(total(Layer::kRegister));
  const cql::QueryServingStats& queries = pass.health.queries;
  m["query_serving.registrations"] = count(pass.counters.registrations);
  m["query_serving.plans"] = count(queries.physical_plans);
  m["query_serving.results"] = count(queries.fanout_results);
  m["query_serving.buffered_tuples"] = count(queries.buffered_tuples);
  m["gen.consumer_ms"] = Ms(total(Layer::kConsumer));

  // The loop thread's CPU time splits into time inside the sink, the
  // benchmark's tick consumer, and the server's own work (decode, epoll,
  // acks), which also takes the sink decorator's forwarding when there is
  // no recovery layer to charge it to.
  const int64_t loop_cpu = std::max<int64_t>(0, pass.loop_cpu_ns);
  const int64_t server_self = std::max<int64_t>(
      0, loop_cpu - total(Layer::kSink) - total(Layer::kConsumer) +
             (recovery ? 0 : sink_self));
  m["net.server.self_ms"] = Ms(server_self);
  m["net.server.frames_decoded"] = count(pass.ingest.frames_decoded);
  m["net.server.bytes_received"] = count(pass.ingest.bytes_received);
  m["net.server.rejected_readings"] = count(pass.ingest.rejected_readings);
  m["net.server.shed_readings"] = count(pass.ingest.shed_readings);

  const core::RecoveryStats& journal = pass.health.recovery;
  m["recovery.journal_records"] = count(journal.journal_records);
  m["recovery.journal_bytes"] = count(journal.journal_bytes);
  m["recovery.checkpoints"] = count(journal.checkpoints_written);
  m["processor.push_rejects"] = count(pass.counters.push_rejects);
  m["processor.buffered_tuples_max"] = count(pass.buffered_tuples_max);

  const int64_t attributed =
      (recovery ? sink_self : 0) + self(Layer::kEnginePush) +
      self(Layer::kEngineTick) + stage_ns + loop_register +
      total(Layer::kConsumer) + server_self;
  const double wall_ns = pass.wall_s * 1e9;
  const double uncovered = wall_ns - static_cast<double>(attributed);
  m["trace.attributed_ms"] = Ms(attributed);
  m["trace.unattributed_frac"] =
      wall_ns > 0 ? std::max(0.0, uncovered) / wall_ns : 0;
  m["trace.wall_ms"] = pass.wall_s * 1e3;
  return m;
}

/// Paced traced pass: how long each tick waited outside the sink, and the
/// snapshot ticks' recovery self time.
void PacedLayerMetrics(const WorkloadTrace& trace, const PassResult& pass,
                       std::map<std::string, double>* m) {
  const LayerSums sums = SumLayers(*pass.tracer);
  std::vector<double> waits;
  std::vector<double> checkpoint_ms;
  const std::optional<core::RecoveryOptions> recovery = RecoveryFor(trace, "");
  const uint64_t interval = recovery ? recovery->checkpoint_interval_ticks : 0;
  for (size_t i = 0; i < pass.tick_latency_ms.size(); ++i) {
    const LayerTotals sink =
        sums.loop ? sums.loop->At(i, Layer::kSink) : LayerTotals{};
    waits.push_back(pass.tick_latency_ms[i] - Ms(sink.total_ns));
    if (interval > 0 && (i + 1) % interval == 0) {
      checkpoint_ms.push_back(Ms(sink.self_ns));
    }
  }
  (*m)["net.tick_wait_ms_p50"] = Median(waits);
  (*m)["recovery.checkpoint_ms_p50"] = Median(checkpoint_ms);
  (*m)["gen.late_ms_p99"] = Quantile(pass.gen_late_ms, 0.99);
}

const char* UnitOf(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_ms") || ends_with(".ms") || ends_with("_ms_p50") ||
      ends_with("_ms_p99")) {
    return "ms";
  }
  if (ends_with("_frac")) return "ratio";
  if (ends_with("bytes_received") || ends_with("journal_bytes")) return "bytes";
  return "count";
}

int Run(const Args& args) {
  StatusOr<WorkloadInfo> info = FindWorkload(args.workload);
  if (!info.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", info.status().ToString().c_str());
    return 2;
  }
  std::printf("meta: workload=%s seed=%llu seconds=%.0f trace=%d nproc=%u",
              info->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  for (const auto& [key, value] : bench::BuildFlagsMetadata()) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");

  const WorkloadTrace trace = GenerateTrace(*info, args.seed);
  std::printf("trace: %zu epochs, %zu readings, %zu subscriptions\n",
              trace.epochs.size(), trace.readings, trace.subscriptions.size());

  // --- Output check, before any timing. ---
  StatusOr<ReferenceResult> reference = RunReference(trace);
  if (!reference.ok()) {
    std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                 reference.status().ToString().c_str());
    return 2;
  }
  Tally tally;
  const std::string run_digest = DigestHex(DigestRun(reference->digests));
  std::printf("reference digest: %s\n", run_digest.c_str());
  if (trace.info.kind == Workload::kShelf) {
    std::printf("shelf average relative error (paper Eq. 1): %.4f\n",
                reference->average_relative_error);
  }
  if (args.seed == kDefaultSeed && !args.golden.empty()) {
    std::map<std::string, std::string> golden = ReadGolden(args.golden);
    const std::string key =
        std::string(info->name) + " " + std::to_string(args.seed);
    if (args.write_golden) {
      golden[key] = run_digest;
      if (!WriteGolden(args.golden, golden)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.golden.c_str());
        return 2;
      }
    } else if (golden[key] != run_digest) {
      std::printf("FAIL golden digest: expected '%s', got %s\n",
                  golden[key].c_str(), run_digest.c_str());
      tally.correct = false;
      tally.failed += static_cast<int64_t>(trace.epochs.size());
    } else {
      std::printf("golden digest: match\n");
    }
  }
  PassConfig base;
  base.work_dir = args.work_dir;
  {
    const PassResult check = RunPass(trace, base, &reference->digests);
    tally.Add(trace, check, "check");
    std::printf("front door vs reference: %lld/%zu ticks, %lld mismatching\n",
                static_cast<long long>(check.ticks_emitted),
                trace.epochs.size(), static_cast<long long>(check.mismatches));
  }

  // --- Timed passes. ---
  auto closed_loop = [&](bool traced, double budget_s, int min_passes,
                         std::vector<PassResult>* passes) {
    PassConfig config = base;
    config.traced = traced;
    const int64_t start = NowNs();
    while (static_cast<int>(passes->size()) < min_passes ||
           static_cast<double>(NowNs() - start) * 1e-9 < budget_s) {
      passes->push_back(RunPass(trace, config, &reference->digests));
      tally.Add(trace, passes->back(),
                traced ? "traced closed-loop" : "closed-loop");
      if (passes->back().failed != 0) break;
    }
  };
  PassConfig paced_config = base;
  paced_config.paced_ticks_per_s = trace.info.paced_ticks_per_s;

  // Paced passes, whose length is fixed by the trace and the offered rate,
  // get at most half of --seconds (at least one pass); closed-loop passes
  // get the rest. The latency percentiles pool every paced tick.
  const double paced_s = static_cast<double>(trace.epochs.size()) /
                         trace.info.paced_ticks_per_s;
  const int paced_passes =
      std::max(1, static_cast<int>(args.seconds / 2 / paced_s));
  const double closed_budget_s =
      std::max(0.0, args.seconds - paced_passes * paced_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setups;
    PassConfig setup_config = base;
    setup_config.setup_only = true;
    const int64_t setup_start = NowNs();
    auto seconds_since = [](int64_t start) {
      return static_cast<double>(NowNs() - start) * 1e-9;
    };
    while (setups.size() < kMinSetupSamples ||
           (setups.size() < kMaxSetupSamples &&
            seconds_since(setup_start) < kSetupBudgetS)) {
      const PassResult pass = RunPass(trace, setup_config, nullptr);
      if (pass.failed != 0) tally.Add(trace, pass, "set-up");
      setups.push_back(pass.setup_s);
    }
    // Paced passes are spread among the closed-loop ones, so slow phases of
    // a shared machine touch both kinds alike.
    std::vector<double> rates;
    std::vector<double> latencies;  // Every paced tick of every paced pass.
    int paced_done = 0;
    const int64_t closed_start = NowNs();
    while (static_cast<int>(rates.size()) < kMinClosedPasses ||
           seconds_since(closed_start) <
               closed_budget_s + paced_done * paced_s ||
           paced_done < paced_passes) {
      if (paced_done < paced_passes &&
          static_cast<size_t>(paced_done) <= rates.size() / 2) {
        const PassResult paced =
            RunPass(trace, paced_config, &reference->digests);
        tally.Add(trace, paced, "paced");
        PrintBacklog(trace, paced);
        ++paced_done;
        latencies.insert(latencies.end(), paced.tick_latency_ms.begin(),
                         paced.tick_latency_ms.end());
        setups.push_back(paced.setup_s);
        if (paced.failed != 0) break;
        continue;
      }
      const PassResult pass = RunPass(trace, base, &reference->digests);
      tally.Add(trace, pass, "closed-loop");
      rates.push_back(ReadingsPerSecond(pass));
      setups.push_back(pass.setup_s);
      if (pass.failed != 0) break;
    }
    std::printf("closed loop: %zu passes of %zu readings, readings/s min %.0f "
                "median %.0f max %.0f; %zu set-ups\n",
                rates.size(), trace.readings, Quantile(rates, 0), Median(rates),
                Quantile(rates, 1), setups.size());
    metrics.push_back({"readings_per_s", Median(rates), "readings/s"});
    metrics.push_back({"tick_p50_ms", Quantile(latencies, 0.50), "ms"});
    metrics.push_back({"setup_s", Median(setups), "s"});
    metrics.push_back({"rss_peak_mb", PeakRssMiB(), "MiB"});
    // Printed, not in the result line: on a shared VM the p99 is set by
    // host stalls more than by the program (see NOTES.md).
    std::printf("tick_p99_ms: %.6f ms (%zu paced ticks)\n",
                Quantile(latencies, 0.99), latencies.size());
    std::printf("failed_frac: %.6f (%lld of %lld readings and ticks)\n",
                tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0,
                static_cast<long long>(tally.failed),
                static_cast<long long>(tally.attempted));
  } else {
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    closed_loop(false, closed_budget_s / 2, 2, &untraced);
    closed_loop(true, closed_budget_s / 2, 2, &traced);
    PassConfig traced_paced = paced_config;
    traced_paced.traced = true;
    const PassResult paced = RunPass(trace, traced_paced, &reference->digests);
    tally.Add(trace, paced, "traced paced");

    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_rates;
    for (const PassResult& pass : traced) {
      for (const auto& [name, value] : LayerMetrics(trace, pass)) {
        samples[name].push_back(value);
      }
      traced_rates.push_back(ReadingsPerSecond(pass));
    }
    std::vector<double> untraced_rates;
    for (const PassResult& pass : untraced) {
      untraced_rates.push_back(ReadingsPerSecond(pass));
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : samples) layer[name] = Median(values);
    PacedLayerMetrics(trace, paced, &layer);
    layer["gen.readings"] = static_cast<double>(trace.readings);
    layer["gen.ticks"] = static_cast<double>(trace.epochs.size());
    const double untraced_rate = Median(untraced_rates);
    layer["trace.overhead_frac"] =
        untraced_rate > 0 ? 1.0 - Median(traced_rates) / untraced_rate : 0;

    std::printf("traced closed loop: %zu passes; wall %.3f ms = attributed "
                "%.3f ms + unattributed %.4f\n",
                traced.size(), layer["trace.wall_ms"],
                layer["trace.attributed_ms"], layer["trace.unattributed_frac"]);
    layer.erase("trace.wall_ms");
    layer.erase("trace.attributed_ms");
    for (const auto& [name, value] : layer) {
      metrics.push_back({name, value, UnitOf(name)});
    }
  }
  Report(metrics, tally.correct, tally.attempted, tally.failed);
  return tally.correct ? 0 : 1;
}

}  // namespace
}  // namespace esp::perfbench

int main(int argc, char** argv) {
  esp::perfbench::Args args;
  if (!esp::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--golden FILE] [--write-golden] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  return esp::perfbench::Run(args);
}
