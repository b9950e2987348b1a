#include "harness/workloads.h"

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "core/toolkit.h"
#include "sim/home_world.h"
#include "sim/reading.h"
#include "sim/shelf_world.h"

namespace esp::perfbench {
namespace {

using core::DeviceTypePipeline;
using core::EspProcessor;
using core::SpatialGranule;
using core::TemporalGranule;
using stream::Tuple;
using stream::Value;

constexpr int kShelfAisles = 8;
constexpr double kShelfHz = 5.0;

constexpr int kMeters = 256;  // Two meters per proximity group.
constexpr int kMetroDayEpochs = 600;
constexpr double kMetroReportProb = 0.45;
// Every seed gets the same number of burst epochs (2 %), at seeded
// positions, so the trace's size and tail do not vary with the seed.
constexpr double kMetroBurstShare = 0.02;
constexpr double kMetroOutlierProb = 0.01;
constexpr uint64_t kMetroCheckpointTicks = 100;

constexpr int kServingSubscriptions = 1000;
constexpr int kServingTenants = 8;
constexpr double kServingDupRatio = 0.5;
constexpr size_t kServingChurnPerTick = 4;
// The subscription set is the workload's fixed query mix (as in
// bench/perf_multiquery); --seed varies the home world's readings. A seeded
// mix would change the tick's cost from seed to seed.
constexpr uint64_t kServingQuerySeed = 17;

/// Independent sub-seed `stream` of the run seed (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string AislePrefix(int aisle) { return "a" + std::to_string(aisle) + "_"; }

stream::SchemaRef MeterSchema() {
  static const stream::SchemaRef schema =
      stream::MakeSchema({{"meter_id", stream::DataType::kString},
                          {"kwh", stream::DataType::kDouble}});
  return schema;
}

std::string MeterId(int meter) { return "m" + std::to_string(meter); }

// --- Generators ------------------------------------------------------------

/// `shelf`: independent aisles of the paper's two-shelf world, each with
/// its own seed, reader ids and tag ids, polled at the same 5 Hz instants.
void GenerateShelf(WorkloadTrace& trace) {
  trace.aisles = kShelfAisles;
  std::vector<std::vector<sim::ShelfWorld::Tick>> aisles;
  for (int a = 0; a < kShelfAisles; ++a) {
    sim::ShelfWorld::Config config;
    config.duration = Duration::Seconds(trace.info.epochs / kShelfHz);
    config.sample_hz = kShelfHz;
    config.seed = SubSeed(trace.seed, static_cast<uint64_t>(a));
    aisles.push_back(sim::ShelfWorld(config).Generate());
  }
  const size_t epochs = aisles[0].size();
  for (size_t e = 0; e < epochs; ++e) {
    Epoch epoch;
    epoch.tick = aisles[0][e].time;
    Batch batch{"rfid", {}};
    std::vector<int64_t> truth;
    for (int a = 0; a < kShelfAisles; ++a) {
      const sim::ShelfWorld::Tick& tick = aisles[static_cast<size_t>(a)][e];
      const std::string prefix = AislePrefix(a);
      for (const sim::RfidReading& r : tick.readings) {
        batch.readings.push_back(sim::ToTuple(
            sim::RfidReading{prefix + r.reader_id, prefix + r.tag_id, r.time}));
      }
      truth.push_back(tick.true_counts[0]);
      truth.push_back(tick.true_counts[1]);
    }
    trace.readings += batch.readings.size();
    if (!batch.readings.empty()) epoch.batches.push_back(std::move(batch));
    trace.epochs.push_back(std::move(epoch));
    trace.shelf_truth.push_back(std::move(truth));
  }
}

/// `metro`: city metering after Xiu et al. Each meter reports with a
/// probability that follows a diurnal curve; burst epochs make every meter
/// report twice. A small share of readings are out-of-range glitches for
/// the Point filter to drop.
void GenerateMetro(WorkloadTrace& trace) {
  Rng rng(SubSeed(trace.seed, 100));
  std::vector<double> base(kMeters);
  for (double& b : base) b = rng.Uniform(0.2, 2.0);
  std::vector<bool> bursts(static_cast<size_t>(trace.info.epochs), false);
  const int num_bursts =
      static_cast<int>(std::lround(kMetroBurstShare * trace.info.epochs));
  for (int placed = 0; placed < num_bursts;) {
    const auto e =
        static_cast<size_t>(rng.UniformInt(0, trace.info.epochs - 1));
    if (!bursts[e]) {
      bursts[e] = true;
      ++placed;
    }
  }
  const stream::SchemaRef schema = MeterSchema();
  for (int e = 0; e < trace.info.epochs; ++e) {
    const double phase = 2.0 * M_PI * e / kMetroDayEpochs;
    const double load = 0.25 + 0.75 * (0.5 - 0.5 * std::cos(phase));
    const bool burst = bursts[static_cast<size_t>(e)];
    Epoch epoch;
    epoch.tick = Timestamp::Seconds(e + 1);
    Batch batch{"meter", {}};
    for (int m = 0; m < kMeters; ++m) {
      int reports = 2;
      if (!burst) reports = rng.Bernoulli(kMetroReportProb * load) ? 1 : 0;
      for (int i = 0; i < reports; ++i) {
        double kwh = base[static_cast<size_t>(m)] * (0.5 + load) *
                     (1.0 + rng.Gaussian(0.0, 0.05));
        if (rng.Bernoulli(kMetroOutlierProb)) {
          kwh = rng.Bernoulli(0.5) ? -5.0 : 5000.0;
        }
        // Meters are polled at the epoch instant, as the paper's readers
        // are; Point stages see only readings stamped with the tick time.
        batch.readings.emplace_back(
            schema,
            std::vector<Value>{Value::String(MeterId(m)), Value::Double(kwh)},
            epoch.tick);
      }
    }
    trace.readings += batch.readings.size();
    if (!batch.readings.empty()) epoch.batches.push_back(std::move(batch));
    trace.epochs.push_back(std::move(epoch));
  }
}

/// One point of the subscription parameter space.
struct QueryParams {
  int tmpl = 0;
  int range_sec = 5;
  int rows = 16;
  int threshold = 0;
};

QueryParams DrawParams(Rng& rng) {
  QueryParams p;
  p.tmpl = static_cast<int>(rng.UniformInt(0, 4));
  p.range_sec = static_cast<int>(rng.UniformInt(1, 30));
  p.rows = static_cast<int>(rng.UniformInt(4, 64));
  p.threshold = static_cast<int>(rng.UniformInt(0, 99));
  return p;
}

/// Renders params to CQL text. Variant 1 is a different surface form
/// (identifier and keyword case, commuted total conjuncts) that only the
/// fingerprint canonicalizer, not string equality, unifies with variant 0.
std::string RenderQuery(const QueryParams& p, int variant) {
  const bool alt = variant == 1;
  const std::string range =
      "[Range By '" + std::to_string(p.range_sec) + " sec']";
  const std::string rows = "[Rows " + std::to_string(p.rows) + "]";
  const std::string noise = std::to_string(480 + p.threshold);
  switch (p.tmpl) {
    case 0:
      return alt ? "select SPATIAL_GRANULE as g, COUNT(*) as n "
                   "from RFID_INPUT " +
                       range + " group by SPATIAL_GRANULE"
                 : "SELECT spatial_granule AS g, count(*) AS n "
                   "FROM rfid_input " +
                       range + " GROUP BY spatial_granule";
    case 1:
      return alt ? "select AVG(NOISE) as m from SENSORS_INPUT " + range +
                       " where NOISE > " + noise
                 : "SELECT avg(noise) AS m FROM sensors_input " + range +
                       " WHERE noise > " + noise;
    case 2: {
      const std::string reads = std::to_string(1 + p.threshold % 25);
      return alt ? "select TAG_ID as t, READS as r from RFID_INPUT " + rows +
                       " where TAG_ID = 'tag_person' and READS >= " + reads
                 : "SELECT tag_id AS t, reads AS r FROM rfid_input " + rows +
                       " WHERE reads >= " + reads +
                       " AND tag_id = 'tag_person'";
    }
    case 3: {
      const std::string votes = std::to_string(2 + p.threshold % 2);
      return alt ? "select COUNT(*) as n from MOTION_INPUT " + range +
                       " where VOTES >= " + votes
                 : "SELECT count(*) AS n FROM motion_input " + range +
                       " WHERE votes >= " + votes;
    }
    default:
      return alt ? "select MAX(NOISE) as peak, MIN(NOISE) as low "
                   "from SENSORS_INPUT " +
                       rows + " where NOISE > " + noise
                 : "SELECT max(noise) AS peak, min(noise) AS low "
                   "FROM sensors_input " +
                       rows + " WHERE noise > " + noise;
  }
}

/// `serving`: the paper's digital home (RFID, sound motes, X10) plus
/// standing subscriptions from several tenants, about half of them
/// surface-form duplicates of an earlier one.
void GenerateServing(WorkloadTrace& trace) {
  sim::HomeWorld::Config config;
  config.duration =
      Duration::Seconds(trace.info.epochs / config.rfid_sample_hz);
  config.seed = SubSeed(trace.seed, 200);
  for (const sim::HomeWorld::Tick& tick : sim::HomeWorld(config).Generate()) {
    Epoch epoch;
    epoch.tick = tick.time;
    Batch rfid{"rfid", {}};
    for (const auto& r : tick.rfid) rfid.readings.push_back(sim::ToTuple(r));
    Batch sound{"mote", {}};
    for (const auto& r : tick.sound) {
      sound.readings.push_back(sim::ToSoundTuple(r));
    }
    Batch motion{"x10", {}};
    for (const auto& r : tick.motion) {
      motion.readings.push_back(sim::ToTuple(r));
    }
    for (Batch* batch : {&rfid, &sound, &motion}) {
      trace.readings += batch->readings.size();
      if (!batch->readings.empty()) epoch.batches.push_back(std::move(*batch));
    }
    trace.epochs.push_back(std::move(epoch));
  }

  Rng rng(kServingQuerySeed);
  std::vector<QueryParams> drawn;
  for (int i = 0; i < kServingSubscriptions; ++i) {
    QueryParams p;
    if (!drawn.empty() && rng.NextDouble() < kServingDupRatio) {
      p = drawn[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(drawn.size()) - 1))];
    } else {
      p = DrawParams(rng);
    }
    drawn.push_back(p);
    trace.subscriptions.push_back(
        {"tenant_" + std::to_string(i % kServingTenants),
         "q" + std::to_string(i),
         RenderQuery(p, static_cast<int>(rng.UniformInt(0, 1)))});
  }
  trace.churn_per_tick = kServingChurnPerTick;
}

// --- Deployments -----------------------------------------------------------

Status BuildShelf(const WorkloadTrace& trace, EspProcessor& processor,
                  Tracer* tracer, LayerCounters* counters) {
  // Every aisle's strong reader observes granule shelf_0 and its weak one
  // shelf_1, so the paper's calibration (ties go to the weak antenna)
  // applies per aisle; tag ids are disjoint across aisles.
  for (int a = 0; a < trace.aisles; ++a) {
    const std::string prefix = AislePrefix(a);
    for (int s = 0; s < 2; ++s) {
      ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
          {prefix + "pg_shelf" + std::to_string(s), "rfid",
           SpatialGranule{"shelf_" + std::to_string(s)},
           {prefix + sim::ShelfWorld::ReaderId(s)}}));
    }
  }
  DeviceTypePipeline rfid;
  rfid.device_type = "rfid";
  rfid.reading_schema = sim::RfidReadingSchema();
  rfid.receptor_id_column = "reader_id";
  const TemporalGranule five_seconds(Duration::Seconds(5));
  rfid.smooth = TraceStages(core::SmoothPresenceCount(five_seconds, "tag_id"),
                            tracer, counters);
  rfid.arbitrate = TraceStages(
      core::ArbitrateMaxCountCalibrated("tag_id", "reads", "shelf_1"), tracer,
      counters);
  return processor.AddPipeline(std::move(rfid));
}

Status BuildMetro(EspProcessor& processor, Tracer* tracer,
                  LayerCounters* counters) {
  for (int g = 0; g < kMeters / 2; ++g) {
    ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
        {"pg_feeder" + std::to_string(g), "meter",
         SpatialGranule{"feeder_" + std::to_string(g)},
         {MeterId(2 * g), MeterId(2 * g + 1)}}));
  }
  DeviceTypePipeline meter;
  meter.device_type = "meter";
  meter.reading_schema = MeterSchema();
  meter.receptor_id_column = "meter_id";
  meter.point.push_back(TraceStages(
      core::PointFilter("kwh >= 0.0 AND kwh < 100.0"), tracer, counters));
  const TemporalGranule five_seconds(Duration::Seconds(5));
  meter.smooth = TraceStages(
      core::SmoothWindowedAverage(five_seconds, "meter_id", "kwh"), tracer,
      counters);
  meter.merge = TraceStages(core::MergeWindowedAverage(five_seconds, "kwh"),
                            tracer, counters);
  return processor.AddPipeline(std::move(meter));
}

/// The Section 6 person detector, as in the Figure 9 experiment.
Status BuildServing(EspProcessor& processor, Tracer* tracer,
                    LayerCounters* counters) {
  using sim::HomeWorld;
  ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
      {"pg_rfid", "rfid", SpatialGranule{"office"},
       {HomeWorld::ReaderId(0), HomeWorld::ReaderId(1)}}));
  ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
      {"pg_motes", "mote", SpatialGranule{"office"},
       {HomeWorld::MoteId(0), HomeWorld::MoteId(1), HomeWorld::MoteId(2)}}));
  ESP_RETURN_IF_ERROR(processor.AddProximityGroup(
      {"pg_x10", "x10", SpatialGranule{"office"},
       {HomeWorld::DetectorId(0), HomeWorld::DetectorId(1),
        HomeWorld::DetectorId(2)}}));

  DeviceTypePipeline rfid;
  rfid.device_type = "rfid";
  rfid.reading_schema = sim::RfidReadingSchema();
  rfid.receptor_id_column = "reader_id";
  rfid.point.push_back(TraceStages(
      core::PointValueFilter("tag_id", {HomeWorld::kPersonTag}), tracer,
      counters));
  const TemporalGranule five_seconds(Duration::Seconds(5));
  rfid.smooth = TraceStages(core::SmoothPresenceCount(five_seconds, "tag_id"),
                            tracer, counters);
  rfid.merge = TraceStages(core::MergeUnion(), tracer, counters);
  rfid.virtualize_input = "rfid_input";
  ESP_RETURN_IF_ERROR(processor.AddPipeline(std::move(rfid)));

  DeviceTypePipeline motes;
  motes.device_type = "mote";
  motes.reading_schema = sim::SoundReadingSchema();
  motes.receptor_id_column = "mote_id";
  motes.smooth = TraceStages(
      core::SmoothWindowedAverage(five_seconds, "mote_id", "noise"), tracer,
      counters);
  motes.merge = TraceStages(core::MergeWindowedAverage(five_seconds, "noise"),
                            tracer, counters);
  motes.virtualize_input = "sensors_input";
  ESP_RETURN_IF_ERROR(processor.AddPipeline(std::move(motes)));

  DeviceTypePipeline x10;
  x10.device_type = "x10";
  x10.reading_schema = sim::MotionReadingSchema();
  x10.receptor_id_column = "detector_id";
  x10.smooth = TraceStages(
      core::SmoothPresenceCount(TemporalGranule(Duration::Seconds(8)),
                                "detector_id"),
      tracer, counters);
  x10.merge = TraceStages(
      core::MergeVoteThreshold(TemporalGranule(Duration::Seconds(8)),
                               "detector_id", 2),
      tracer, counters);
  x10.virtualize_input = "motion_input";
  ESP_RETURN_IF_ERROR(processor.AddPipeline(std::move(x10)));

  ESP_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Stage> virtualize,
      core::VirtualizeVote({{"sensors_input", "noise > 525"},
                            {"rfid_input", "reads >= 1"},
                            {"motion_input", "votes >= 2"}},
                           /*threshold=*/2, "Person-in-room"));
  processor.SetVirtualize(TraceStage(std::move(virtualize), tracer, counters));
  return Status::OK();
}

}  // namespace

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {Workload::kShelf, "shelf",
       "few receptors; CQL Smooth and calibrated Arbitrate dominate the tick",
       1200, 200.0},
      {Workload::kMetro, "metro",
       "256 meters: routing, ingest decode and journal append dominate; "
       "snapshots in the tail",
       1000, 60.0},
      {Workload::kServing, "serving",
       "1000 subscriptions, half duplicates, churned every tick: query "
       "evaluation and fan-out dominate",
       1000, 100.0},
  };
  return workloads;
}

StatusOr<WorkloadInfo> FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : AllWorkloads()) {
    if (name == info.name) return info;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

WorkloadTrace GenerateTrace(const WorkloadInfo& info, uint64_t seed) {
  WorkloadTrace trace;
  trace.info = info;
  trace.seed = seed;
  switch (info.kind) {
    case Workload::kShelf:
      GenerateShelf(trace);
      break;
    case Workload::kMetro:
      GenerateMetro(trace);
      break;
    case Workload::kServing:
      GenerateServing(trace);
      break;
  }
  return trace;
}

StatusOr<std::unique_ptr<EspProcessor>> BuildProcessor(
    const WorkloadTrace& trace, Tracer* tracer, LayerCounters* counters) {
  auto processor = std::make_unique<EspProcessor>();
  switch (trace.info.kind) {
    case Workload::kShelf:
      ESP_RETURN_IF_ERROR(BuildShelf(trace, *processor, tracer, counters));
      break;
    case Workload::kMetro:
      ESP_RETURN_IF_ERROR(BuildMetro(*processor, tracer, counters));
      break;
    case Workload::kServing:
      ESP_RETURN_IF_ERROR(BuildServing(*processor, tracer, counters));
      break;
  }
  ESP_RETURN_IF_ERROR(processor->Start());
  return processor;
}

std::optional<core::RecoveryOptions> RecoveryFor(const WorkloadTrace& trace,
                                                 const std::string& dir) {
  if (trace.info.kind != Workload::kMetro) return std::nullopt;
  core::RecoveryOptions options;
  options.directory = dir;
  options.checkpoint_interval_ticks = kMetroCheckpointTicks;
  options.retain_snapshots = 2;
  // Time the program, not the shared machine's disk.
  options.fsync = false;
  options.journal_flush_every = 1;
  return options;
}

Status RegisterSubscriptions(const WorkloadTrace& trace,
                             core::StreamEngine* engine) {
  for (const Subscription& sub : trace.subscriptions) {
    ESP_RETURN_IF_ERROR(engine->RegisterQuery(sub.tenant, sub.name, sub.text));
  }
  return Status::OK();
}

bool HasTickHook(const WorkloadTrace& trace) {
  return trace.churn_per_tick > 0 && !trace.subscriptions.empty();
}

Status BeforeTick(const WorkloadTrace& trace, core::StreamEngine* engine,
                  int64_t tick) {
  const size_t n = trace.subscriptions.size();
  for (size_t j = 0; j < trace.churn_per_tick; ++j) {
    const size_t index =
        (static_cast<size_t>(tick) * trace.churn_per_tick + j) % n;
    const Subscription& sub = trace.subscriptions[index];
    ESP_RETURN_IF_ERROR(engine->UnregisterQuery(sub.name));
    ESP_RETURN_IF_ERROR(engine->RegisterQuery(sub.tenant, sub.name, sub.text));
  }
  return Status::OK();
}

Status AppendShelfCounts(const WorkloadTrace& trace, size_t epoch,
                         const core::TickResult& result,
                         std::vector<double>* reported,
                         std::vector<double>* truth) {
  std::vector<double> counts(static_cast<size_t>(trace.aisles) * 2, 0.0);
  for (const auto& [type, relation] : result.per_type) {
    for (const Tuple& row : relation.tuples()) {
      ESP_ASSIGN_OR_RETURN(const Value granule, row.Get("spatial_granule"));
      ESP_ASSIGN_OR_RETURN(const Value tag, row.Get("tag_id"));
      int aisle = -1;
      if (std::sscanf(tag.string_value().c_str(), "a%d_", &aisle) != 1 ||
          aisle < 0 || aisle >= trace.aisles) {
        return Status::Internal("unexpected tag id '" + tag.string_value() +
                                "'");
      }
      const size_t shelf = granule.string_value() == "shelf_0" ? 0 : 1;
      counts[static_cast<size_t>(aisle) * 2 + shelf] += 1.0;
    }
  }
  const std::vector<int64_t>& t = trace.shelf_truth[epoch];
  for (size_t i = 0; i < counts.size(); ++i) {
    reported->push_back(counts[i]);
    truth->push_back(static_cast<double>(t[i]));
  }
  return Status::OK();
}

}  // namespace esp::perfbench
