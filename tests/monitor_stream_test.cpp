// Streaming-vs-batch equivalence and bounded-memory contracts of the
// always-on diagnosis service (monitor::StreamAnalyzer). The streaming
// analyzer's final diagnosis must EQUAL HierarchicalAnalyzer::diagnose()
// (operator==, confidence and evidence chain included) on every
// diagnose_failure scenario, clean and degraded; its rollup footprint
// must plateau while the store's record count keeps growing.
#include "monitor/stream_analyzer.h"

#include <gtest/gtest.h>

#include "monitor/cluster_runtime.h"
#include "monitor/degrade.h"
#include "obs/metrics.h"

namespace astral::monitor {
namespace {

topo::Fabric test_fabric(int pods = 1) {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 8;
  p.blocks_per_pod = 2;
  p.pods = pods;
  return topo::Fabric(p);
}

JobConfig small_job() {
  JobConfig j;
  j.hosts = 8;
  j.iterations = 5;
  j.comm_bytes = 8ull * 1024 * 1024;
  return j;
}

struct Scenario {
  const char* name;
  RootCause cause;
  Manifestation manifestation;
};

// Print a scenario by name. gtest's fallback dumps the struct's bytes,
// which puts the address of the name literal (randomised per process)
// into the listed test names.
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

// The diagnose_failure scenario table plus the two causes the example
// leaves to tests (LinkFlap, WireConnection) and the healthy baseline.
const Scenario kScenarios[] = {
    {"optical", RootCause::OpticalFiber, Manifestation::FailSlow},
    {"switch_bug", RootCause::SwitchBug, Manifestation::FailHang},
    {"switch_config", RootCause::SwitchConfig, Manifestation::FailSlow},
    {"pcie", RootCause::PcieDegrade, Manifestation::FailSlow},
    {"gpu", RootCause::GpuHardware, Manifestation::FailStop},
    {"memory", RootCause::Memory, Manifestation::FailStop},
    {"nic", RootCause::NicError, Manifestation::FailStop},
    {"user_code", RootCause::UserCode, Manifestation::FailStop},
    {"env", RootCause::HostEnvConfig, Manifestation::FailOnStart},
    {"ccl", RootCause::CclBug, Manifestation::FailHang},
    {"link_flap", RootCause::LinkFlap, Manifestation::FailStop},
    {"wire", RootCause::WireConnection, Manifestation::FailStop},
};

class StreamEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(StreamEquivalence, FinalDiagnosisEqualsBatch) {
  const Scenario& sc = GetParam();
  auto f = test_fabric();
  StreamAnalyzer stream(f.topo());  // outlives the runtime
  ClusterRuntime rt(f, small_job(), 33);
  rt.set_stream_analyzer(&stream);
  rt.inject(rt.make_fault(sc.cause, sc.manifestation, 2));
  rt.run();

  HierarchicalAnalyzer batch(rt.telemetry(), f.topo(), rt.expected_compute(),
                             rt.expected_comm());
  Diagnosis expected = batch.diagnose();
  Diagnosis got = stream.diagnosis();
  EXPECT_EQ(got, expected) << sc.name;
  EXPECT_TRUE(stream.online_anomaly());
  EXPECT_GE(stream.revisions(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StreamEquivalence,
                         ::testing::ValuesIn(kScenarios),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(StreamAnalyzer, HealthyRunEqualsBatchAndStaysCalm) {
  auto f = test_fabric();
  StreamAnalyzer stream(f.topo());
  ClusterRuntime rt(f, small_job(), 1);
  rt.set_stream_analyzer(&stream);
  rt.run();

  HierarchicalAnalyzer batch(rt.telemetry(), f.topo(), rt.expected_compute(),
                             rt.expected_comm());
  EXPECT_EQ(stream.diagnosis(), batch.diagnose());
  // No online trigger fired: the one diagnosis happened lazily on read.
  EXPECT_FALSE(stream.online_anomaly());
  EXPECT_EQ(stream.revisions(), 1u);
  EXPECT_GT(stream.records_ingested(), 0u);
}

// Degraded-telemetry equivalence: both analyzers read the SAME lossy
// store (the model interposes before ingestion), both widen their
// clock-skew tolerance per the campaign convention — outputs match
// exactly for every profile, which keeps the streaming service inside
// the batch analyzer's calibration contract.
TEST(StreamAnalyzer, DegradedProfilesMatchBatch) {
  struct ProfileCase {
    const char* name;
    DegradationProfile profile;
  };
  const ProfileCase cases[] = {
      {"clean", DegradationProfile::clean()},
      {"mild", DegradationProfile::mild()},
      {"severe", DegradationProfile::severe()},
      {"adversarial", DegradationProfile::adversarial()},
  };
  for (const auto& [name, profile] : cases) {
    for (std::uint64_t seed : {7ull, 19ull}) {
      auto f = test_fabric();
      AnalyzerConfig acfg;
      acfg.clock_skew_tolerance = profile.max_clock_skew + profile.max_jitter;
      StreamAnalyzerConfig scfg;
      scfg.analyzer = acfg;
      StreamAnalyzer stream(f.topo(), scfg);
      TelemetryFaultModel model(profile, seed ^ 0xD15EA5Eull);
      ClusterRuntime rt(f, small_job(), seed);
      rt.set_telemetry_faults(&model);
      rt.set_stream_analyzer(&stream);
      rt.inject(rt.make_fault(RootCause::NicError, Manifestation::FailStop, 2));
      rt.run();

      HierarchicalAnalyzer batch(rt.telemetry(), f.topo(), rt.expected_compute(),
                                 rt.expected_comm(), acfg);
      Diagnosis expected = batch.diagnose();
      Diagnosis got = stream.diagnosis();
      EXPECT_EQ(got, expected) << name << " seed " << seed;
      // Calibration contract carries over verbatim.
      if (got.confidence >= 0.9 && got.root_cause_found) {
        EXPECT_EQ(got.root_cause, RootCause::NicError) << name;
      }
    }
  }
}

// Attaching mid-run replays what the store already holds: the rollups
// and final diagnosis are the same as an attached-from-birth analyzer.
TEST(StreamAnalyzer, MidRunAttachReplaysHistory) {
  auto f = test_fabric();
  StreamAnalyzer late(f.topo());
  ClusterRuntime rt(f, small_job(), 5);
  rt.inject(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2));
  rt.run();
  // Everything already happened; subscribe now and replay.
  rt.set_stream_analyzer(&late);

  HierarchicalAnalyzer batch(rt.telemetry(), f.topo(), rt.expected_compute(),
                             rt.expected_comm());
  EXPECT_EQ(late.diagnosis(), batch.diagnose());
  EXPECT_EQ(late.records_ingested(), rt.telemetry().record_count());
}

// ---- Bounded memory: record_count grows without bound, the rollup
// footprint is EXACTLY constant once the fabric's QPs have been seen.

TEST(StreamAnalyzer, FootprintPlateausWhileStoreGrows) {
  auto f = test_fabric(2);
  TelemetryStore store;
  StreamAnalyzer stream(f.topo());
  stream.subscribe(store, {.job_id = 0,
                           .expected_compute = 0.05,
                           .expected_comm = 0.01,
                           .host_pods = {0, 0, 1, 1}});
  for (QpId qp = 0; qp < 16; ++qp) {
    QpMeta meta;
    meta.qp = qp;
    meta.src_host_rank = static_cast<int>(qp % 4);
    meta.src_host =
        f.topo().hosts()[static_cast<std::size_t>(qp) % f.topo().hosts().size()];
    store.register_qp(meta);
  }
  auto batch = [&](int b) {
    for (int i = 0; i < 500; ++i) {
      double t = b * 500.0 + i;
      store.record(QpRateSample{t, static_cast<QpId>(i % 16), 1e9 + i});
      LinkCounterSample ls;
      ls.t = t;
      ls.link = static_cast<topo::LinkId>(i % f.topo().link_count());
      ls.ecn_marks = 2;
      ls.pfc_pauses = 1;
      ls.utilization = 0.5;
      store.record(ls);
      NcclTimelineEvent ev;
      ev.t = t;
      ev.host_rank = i % 4;
      ev.iteration = b;
      ev.compute_time = 0.05;
      ev.comm_time = 0.01;
      store.record(ev);
    }
  };
  batch(0);
  batch(1);
  std::size_t warm = stream.footprint_bytes();
  std::size_t count_warm = store.record_count();
  for (int b = 2; b < 10; ++b) batch(b);
  EXPECT_GT(store.record_count(), count_warm * 4);
  // Not "grows slowly": exactly flat.
  EXPECT_EQ(stream.footprint_bytes(), warm);
  EXPECT_EQ(stream.records_ingested(), store.record_count());
  stream.unsubscribe(store);
  EXPECT_EQ(store.sink(), nullptr);
}

// ---- Rollup correctness: counters match the store's own totals and
// the upward reduction preserves sums.

TEST(StreamAnalyzer, RollupsMatchStoreTotalsAndReduce) {
  auto f = test_fabric(2);
  TelemetryStore store;
  StreamAnalyzer stream(f.topo());
  stream.subscribe(store, {});

  // A handful of links spanning whatever tiers/pods they land in; the
  // invariant under test is that the reduction loses nothing.
  std::vector<topo::LinkId> links;
  for (std::size_t l = 0; l < std::min<std::size_t>(6, f.topo().link_count()); ++l) {
    links.push_back(static_cast<topo::LinkId>(l));
  }
  std::uint64_t want_ecn = 0;
  std::uint64_t want_pfc = 0;
  for (int i = 0; i < 100; ++i) {
    LinkCounterSample ls;
    ls.t = i;
    ls.link = links[static_cast<std::size_t>(i) % links.size()];
    ls.ecn_marks = static_cast<std::uint64_t>(i % 3);
    ls.pfc_pauses = 1;
    want_ecn += ls.ecn_marks;
    want_pfc += ls.pfc_pauses;
    store.record(ls);
  }
  FabricRollup fab = stream.fabric();
  EXPECT_EQ(fab.links.ecn_marks, want_ecn);
  EXPECT_EQ(fab.links.pfc_pauses, want_pfc);
  EXPECT_EQ(fab.links.counter_samples, 100u);
  // Pod -> tier -> fabric: per-pod sums and per-tier sums both cover
  // exactly the same leaves.
  std::uint64_t pod_sum = 0;
  for (int p = 0; p < stream.pods(); ++p) pod_sum += stream.pod(p).links().pfc_pauses;
  std::uint64_t tier_sum = 0;
  for (int t = 0; t < kLinkTiers; ++t) {
    tier_sum += stream.tier(static_cast<LinkTier>(t)).pfc_pauses;
  }
  EXPECT_EQ(pod_sum, want_pfc);
  EXPECT_EQ(tier_sum, want_pfc);
  stream.unsubscribe(store);
}

TEST(StreamAnalyzer, CumulativeCountersStreamAsDeltas) {
  auto f = test_fabric();
  TelemetryStore store;
  StreamAnalyzer stream(f.topo());
  stream.subscribe(store, {});
  auto cum = [&](double t, std::uint64_t total) {
    LinkCounterSample ls;
    ls.t = t;
    ls.link = 0;
    ls.ecn_marks = total;
    ls.cumulative = true;
    store.record(ls);
  };
  cum(1.0, 100);
  cum(2.0, 150);
  cum(2.0, 150);  // duplicate batch: stale, contributes nothing
  cum(3.0, 30);   // switch reboot: resync, +30
  EXPECT_EQ(stream.fabric().links.ecn_marks, 180u);
  EXPECT_EQ(stream.fabric().links.ecn_marks, store.total_ecn(0));
  stream.unsubscribe(store);

  // A late subscriber replays the same effective deltas.
  StreamAnalyzer late(f.topo());
  late.subscribe(store, {});
  EXPECT_EQ(late.fabric().links.ecn_marks, 180u);
  late.unsubscribe(store);
}

TEST(StreamAnalyzer, MitigationAndBlastFeedsLandInPodRollups) {
  auto f = test_fabric(2);
  StreamAnalyzer stream(f.topo());
  stream.note_mitigation(0, 120.0, 0);
  stream.note_mitigation(0, 240.0, 1);
  stream.note_fleet_fault(1, 3);
  stream.note_blast_radius(1, 1.5);
  EXPECT_EQ(stream.pod(0).faults, 1u);
  EXPECT_EQ(stream.pod(1).faults, 2u);
  EXPECT_EQ(stream.pod(1).blast_jobs_touched, 3u);
  EXPECT_DOUBLE_EQ(stream.pod(1).blast_host_hours_lost, 1.5);
  EXPECT_EQ(stream.fabric_mttr().count(), 2u);
  EXPECT_EQ(stream.fabric().faults, 3u);
  EXPECT_NEAR(stream.pod(0).mttr_s.percentile(50.0), 120.0, 120.0 * 0.05);
}

// ---- Online triggers and the diagnosis callback.

TEST(StreamAnalyzer, CallbackFiresOnAnomalyAndRevisesPerIteration) {
  auto f = test_fabric();
  StreamAnalyzer stream(f.topo());
  int fired = 0;
  Diagnosis last;
  stream.set_on_diagnosis([&](std::int64_t job, const Diagnosis& d, core::Seconds) {
    EXPECT_EQ(job, 0);
    ++fired;
    last = d;
  });
  ClusterRuntime rt(f, small_job(), 11);
  rt.set_stream_analyzer(&stream);
  rt.inject(rt.make_fault(RootCause::OpticalFiber, Manifestation::FailSlow, 2));
  rt.run();
  EXPECT_GE(fired, 1);
  // Bounded eagerness: at most one full re-diagnosis per iteration plus
  // the onset and the finalize.
  EXPECT_LE(stream.revisions(), static_cast<std::uint64_t>(small_job().iterations + 2));
  Diagnosis final = stream.diagnosis();
  EXPECT_EQ(final, last);  // the last callback saw the final revision
}

TEST(StreamAnalyzer, FrameCallbackPacesByTelemetryTime) {
  auto f = test_fabric();
  TelemetryStore store;
  StreamAnalyzer stream(f.topo());
  int frames = 0;
  stream.set_frame_callback(1.0, [&](core::Seconds) { ++frames; });
  stream.subscribe(store, {});
  for (int i = 0; i < 1000; ++i) {
    store.record(QpRateSample{i * 0.01, 0, 1e9});  // 10 s of telemetry
  }
  EXPECT_GE(frames, 9);
  EXPECT_LE(frames, 11);
  stream.unsubscribe(store);
}

// ---- Gauges + dashboard rendering.

TEST(StreamAnalyzer, PublishesGaugesAndRendersDashboard) {
  auto f = test_fabric(2);
  StreamAnalyzer stream(f.topo());
  ClusterRuntime rt(f, small_job(), 3);
  rt.set_stream_analyzer(&stream);
  rt.inject(rt.make_fault(RootCause::NicError, Manifestation::FailStop, 2));
  rt.run();
  stream.diagnosis();  // freshen the cached revision before publishing

  obs::Metrics m;
  stream.publish(m);
  EXPECT_GT(m.gauge("stream.records_ingested"), 0.0);
  EXPECT_GT(m.gauge("stream.footprint_bytes"), 0.0);
  EXPECT_EQ(m.gauge("stream.pods"), 2.0);
  // The NIC fault struck a pod-0 host: its errCQEs roll up there (and
  // into the fabric root), the untouched pod 1 stays clean.
  EXPECT_GE(m.gauge("stream.pod0.err_cqes"), 1.0);
  EXPECT_EQ(m.gauge("stream.pod1.err_cqes"), 0.0);
  EXPECT_EQ(m.gauge("stream.fabric.err_cqes"), m.gauge("stream.pod0.err_cqes"));
  EXPECT_EQ(m.gauge("stream.diag.jobs"), 1.0);
  EXPECT_EQ(m.gauge("stream.diag.anomalies"), 1.0);
  EXPECT_GE(m.gauge("stream.diag.revisions"), 1.0);

  std::string dash = render_pod_dashboard(m, 2);
  EXPECT_NE(dash.find("pod0"), std::string::npos);
  EXPECT_NE(dash.find("pod1"), std::string::npos);
  EXPECT_NE(dash.find("fabric"), std::string::npos);
  EXPECT_NE(dash.find("streaming diagnosis"), std::string::npos);
}

}  // namespace
}  // namespace astral::monitor
