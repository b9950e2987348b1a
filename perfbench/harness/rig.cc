#include "harness/rig.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "core/metrics.h"
#include "harness/digest.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"

namespace esp::perfbench {
namespace {

namespace fs = std::filesystem;

/// A started deployment. Members are declared in dependency order, so
/// destruction stops the client and server before the engine they feed.
struct Rig {
  LayerCounters* counters = nullptr;
  std::unique_ptr<core::EspProcessor> processor;
  std::unique_ptr<TracedEngine> traced_engine;
  core::StreamEngine* engine = nullptr;
  std::unique_ptr<core::RecoveryCoordinator> recovery;
  std::unique_ptr<net::IngestSink> inner_sink;
  std::unique_ptr<BenchSink> bench_sink;
  net::IngestSink* sink = nullptr;
  std::unique_ptr<net::IngestServer> server;
  std::unique_ptr<net::IngestClient> client;
};

/// State written by the server loop thread's on_tick callback.
struct TickLog {
  std::vector<uint64_t> digests;
  std::vector<int64_t> emit_ns;
  std::atomic<int64_t> emitted{0};
  std::atomic<int64_t> last_emit_ns{0};
  size_t buffered_max = 0;
};

std::string PassDir(const std::string& parent) {
  static std::atomic<int> next{0};
  return parent + "/pass-" + std::to_string(::getpid()) + "-" +
         std::to_string(next.fetch_add(1));
}

std::string NewestSnapshot(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    // RecoveryCoordinator names snapshots snap_<zero-padded seq>.ckpt.
    if (name.ends_with(".ckpt") && name > newest) newest = name;
  }
  if (newest.empty()) return "";
  StatusOr<std::string> bytes = core::ReadFileToString(dir + "/" + newest);
  return bytes.ok() ? bytes.value() : "";
}

Status StartRig(const WorkloadTrace& trace, const std::string& dir,
                Tracer* tracer, TickLog* log, Rig& rig) {
  ESP_ASSIGN_OR_RETURN(rig.processor,
                       BuildProcessor(trace, tracer, rig.counters));
  rig.engine = rig.processor.get();
  if (tracer != nullptr) {
    rig.traced_engine = std::make_unique<TracedEngine>(
        rig.processor.get(), tracer, rig.counters);
    rig.engine = rig.traced_engine.get();
  }
  // Registration shares the engine's single-threaded contract, so it runs
  // before the server's loop thread can touch the engine.
  ESP_RETURN_IF_ERROR(RegisterSubscriptions(trace, rig.engine));
  if (std::optional<core::RecoveryOptions> recovery = RecoveryFor(trace, dir)) {
    fs::create_directories(dir);
    ESP_ASSIGN_OR_RETURN(
        rig.recovery, core::RecoveryCoordinator::Start(rig.engine, *recovery));
    rig.inner_sink =
        std::make_unique<net::RecoverySink>(rig.recovery.get(), rig.engine);
  } else {
    rig.inner_sink = std::make_unique<net::EngineSink>(rig.engine);
  }
  rig.sink = rig.inner_sink.get();
  if (tracer != nullptr || HasTickHook(trace)) {
    BenchSink::TickHook hook;
    if (HasTickHook(trace)) {
      core::StreamEngine* engine = rig.engine;
      hook = [&trace, engine](int64_t tick) {
        return BeforeTick(trace, engine, tick);
      };
    }
    rig.bench_sink = std::make_unique<BenchSink>(rig.inner_sink.get(), tracer,
                                                 std::move(hook));
    rig.sink = rig.bench_sink.get();
  }

  net::IngestServerOptions server_options;
  core::EspProcessor* processor = rig.processor.get();
  const size_t capacity = log->digests.size();
  server_options.on_tick = [log, tracer, processor, capacity](
                               Timestamp, const core::TickResult& result) {
    const int64_t now = NowNs();
    ScopedSpan span(tracer, Layer::kConsumer);
    const int64_t i = log->emitted.load(std::memory_order_relaxed);
    if (static_cast<size_t>(i) < capacity) {
      log->emit_ns[static_cast<size_t>(i)] = now;
      log->digests[static_cast<size_t>(i)] = DigestTick(result);
    }
    if (tracer != nullptr) {
      log->buffered_max =
          std::max(log->buffered_max, processor->BufferedTuples());
    }
    log->last_emit_ns.store(now, std::memory_order_relaxed);
    log->emitted.store(i + 1, std::memory_order_release);
  };
  ESP_ASSIGN_OR_RETURN(rig.server, net::IngestServer::Start(
                                       rig.sink, std::move(server_options)));
  net::IngestClientOptions client_options;
  client_options.port = rig.server->port();
  client_options.client_id = "perfbench";
  ESP_ASSIGN_OR_RETURN(rig.client,
                       net::IngestClient::Connect(std::move(client_options)));
  return Status::OK();
}

/// Sleeps to just before `due_ns`, then spins, so the generator's own
/// wake-up latency stays out of the measured tick latency.
void SleepUntilNs(int64_t due_ns) {
  constexpr int64_t kSpinNs = 100'000;
  const int64_t wait = due_ns - NowNs() - kSpinNs;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  while (NowNs() < due_ns) {
  }
}

}  // namespace

PassResult RunPass(const WorkloadTrace& trace, const PassConfig& config,
                   const std::vector<uint64_t>* reference) {
  PassResult out;
  const size_t n = trace.epochs.size();
  if (config.traced) out.tracer = std::make_unique<Tracer>(n);
  Tracer* tracer = out.tracer.get();
  TickLog log;
  log.digests.assign(n, 0);
  log.emit_ns.assign(n, 0);
  const std::string dir = PassDir(config.work_dir);

  auto fail = [&out](const Status& status) {
    ++out.client_errors;
    if (out.first_error.empty()) out.first_error = status.ToString();
  };

  {
    Rig rig;
    rig.counters = &out.counters;
    const int64_t setup_start = NowNs();
    const Status started = StartRig(trace, dir, tracer, &log, rig);
    out.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
    if (!started.ok()) {
      fail(started);
    } else if (!config.setup_only) {
      ThreadSpans* client_spans = tracer ? &tracer->ForThisThread() : nullptr;
      auto client_tick = [client_spans](size_t tick) {
        if (client_spans != nullptr) {
          client_spans->SetTick(static_cast<int64_t>(tick));
        }
      };
      const bool paced = config.paced_ticks_per_s > 0;
      const double period_ns = paced ? 1e9 / config.paced_ticks_per_s : 0;
      const int64_t first_send = NowNs() + (paced ? 2'000'000 : 0);
      std::vector<int64_t> due(n, 0);
      for (size_t e = 0; e < n && out.client_errors == 0; ++e) {
        const Epoch& epoch = trace.epochs[e];
        client_tick(e);
        if (paced) {
          due[e] = first_send +
                   static_cast<int64_t>(period_ns * static_cast<double>(e));
          SleepUntilNs(due[e]);
          out.gen_late_ms.push_back(static_cast<double>(NowNs() - due[e]) *
                                    1e-6);
        }
        for (const Batch& batch : epoch.batches) {
          ScopedSpan span(tracer, Layer::kClient);
          const Status sent =
              rig.client->PushBatch(batch.device_type, batch.readings);
          if (!sent.ok()) {
            fail(sent);
            break;
          }
        }
        if (out.client_errors != 0) break;
        ScopedSpan span(tracer, Layer::kClient);
        const Status ticked = rig.client->PushTick(epoch.tick);
        if (!ticked.ok()) {
          fail(ticked);
          break;
        }
      }
      if (paced) {
        out.emitted_at_last_due = log.emitted.load(std::memory_order_acquire);
      }
      if (out.client_errors == 0) {
        client_tick(n);
        ScopedSpan span(tracer, Layer::kClient);
        const Status flushed = rig.client->Flush();
        if (!flushed.ok()) fail(flushed);
      }
      // Every sent frame is acked, so every tick has been applied.
      if (rig.bench_sink != nullptr) {
        out.loop_cpu_ns = rig.bench_sink->LoopCpuNs();
      }
      out.wall_s = static_cast<double>(
                       log.last_emit_ns.load(std::memory_order_acquire) -
                       first_send) *
                   1e-9;
      const Status closed = rig.client->Close();
      if (!closed.ok()) fail(closed);
      rig.server->Stop();
      out.ingest = rig.server->StatsSnapshot();
      out.health = rig.engine->Health();
      out.ticks_emitted = log.emitted.load(std::memory_order_acquire);
      if (paced) {
        const size_t emitted =
            std::min(static_cast<size_t>(out.ticks_emitted), n);
        for (size_t i = 0; i < emitted; ++i) {
          out.tick_latency_ms.push_back(
              static_cast<double>(log.emit_ns[i] - due[i]) * 1e-6);
        }
      }
      if (config.keep_checkpoint) {
        core::CheckpointWriter writer;
        const Status checkpointed = rig.engine->Checkpoint(writer);
        if (!checkpointed.ok()) fail(checkpointed);
        out.checkpoint_bytes = writer.Serialize();
        out.snapshot_bytes = NewestSnapshot(dir);
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  // Hand the torn-down deployment's heap back to the OS, so peak RSS is the
  // largest single deployment, not leftovers of earlier passes stacked up.
  malloc_trim(0);

  const auto emitted = std::min<int64_t>(out.ticks_emitted,
                                         static_cast<int64_t>(n));
  out.digests.assign(log.digests.begin(), log.digests.begin() + emitted);
  out.buffered_tuples_max = log.buffered_max;
  if (reference != nullptr) {
    for (size_t i = 0; i < out.digests.size(); ++i) {
      if (i >= reference->size() || out.digests[i] != (*reference)[i]) {
        ++out.mismatches;
      }
    }
  }
  const int64_t expected_ticks =
      config.setup_only ? 0 : static_cast<int64_t>(n);
  const int64_t missing_ticks = std::max<int64_t>(
      0, expected_ticks - out.ticks_emitted - out.ingest.rejected_ticks);
  out.failed = out.ingest.rejected_readings + out.ingest.shed_readings +
               out.ingest.rejected_ticks + missing_ticks + out.client_errors +
               out.mismatches;
  return out;
}

StatusOr<ReferenceResult> RunReference(const WorkloadTrace& trace) {
  ESP_ASSIGN_OR_RETURN(std::unique_ptr<core::EspProcessor> processor,
                       BuildProcessor(trace, nullptr, nullptr));
  ESP_RETURN_IF_ERROR(RegisterSubscriptions(trace, processor.get()));
  ReferenceResult out;
  std::vector<double> reported;
  std::vector<double> truth;
  const bool hook = HasTickHook(trace);
  for (size_t e = 0; e < trace.epochs.size(); ++e) {
    const Epoch& epoch = trace.epochs[e];
    for (const Batch& batch : epoch.batches) {
      for (const stream::Tuple& reading : batch.readings) {
        ESP_RETURN_IF_ERROR(processor->Push(batch.device_type, reading));
      }
    }
    if (hook) {
      ESP_RETURN_IF_ERROR(
          BeforeTick(trace, processor.get(), static_cast<int64_t>(e)));
    }
    ESP_ASSIGN_OR_RETURN(core::TickResult result, processor->Tick(epoch.tick));
    out.digests.push_back(DigestTick(result));
    if (trace.info.kind == Workload::kShelf) {
      ESP_RETURN_IF_ERROR(
          AppendShelfCounts(trace, e, result, &reported, &truth));
    }
  }
  if (trace.info.kind == Workload::kShelf) {
    ESP_ASSIGN_OR_RETURN(out.average_relative_error,
                         core::AverageRelativeError(reported, truth));
  }
  processor.reset();
  malloc_trim(0);
  return out;
}

}  // namespace esp::perfbench
