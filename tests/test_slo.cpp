// Closed-loop SLO monitoring contracts (src/obs/window.*, src/obs/slo.*,
// and the admission layers that act on the signal):
// (1) windowed histograms — rotation matches a flat oracle over the retained
// samples, quantiles stay within one bucket width across window boundaries,
// old samples drop (counted) instead of smearing, and concurrent recorders
// merge exactly (the TSan suite runs the WindowedHistogram* tests);
// (2) burn-rate math — good/bad accounting, capacity scaling, and the
// hysteretic tri-state machine that cannot flap at the threshold;
// (3) the closed loop — SLO *tracking* alone leaves the golden fault-free
// cluster trace bit-identical (pinned FNV hash), kAdaptive sheds exactly the
// lowest-priority work while Critical, shed decisions replay bit-identically,
// and conservation holds with kSloShed in the outcome set.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "cluster/cluster_service.hpp"
#include "cluster/faults.hpp"
#include "obs/slo.hpp"
#include "obs/window.hpp"
#include "runtime/workloads.hpp"
#include "service/job_service.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace graphm::obs {
namespace {

// ---------------------------------------------------------------------------
// WindowedHistogram: rotation vs a flat oracle
// ---------------------------------------------------------------------------

TEST(WindowedHistogram, SubSpanRoundsUpAndNeverZero) {
  const WindowedHistogram w(100, 6);  // 100 / 6 rounds up to 17
  EXPECT_EQ(w.sub_span_ns(), 17u);
  EXPECT_EQ(w.sub_windows(), 6u);
  EXPECT_EQ(w.span_ns(), 17u * 6);
  const WindowedHistogram tiny(0, 0);  // degenerate inputs clamp to 1x1
  EXPECT_EQ(tiny.sub_span_ns(), 1u);
  EXPECT_EQ(tiny.sub_windows(), 1u);
}

TEST(WindowedHistogram, FullMergeMatchesFlatOracleWhileNothingExpires) {
  WindowedHistogram w(/*span_ns=*/1000, /*sub_windows=*/4);  // 250ns slots
  Histogram oracle;
  util::SplitMix64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t = rng.next() % 1000;  // all within one window span
    const std::uint64_t v = rng.next() % 100000;
    w.record(t, v);
    oracle.record(v);
  }
  Histogram merged;
  w.merged(/*now_ns=*/999, w.sub_windows(), merged);
  EXPECT_EQ(merged.count(), oracle.count());
  EXPECT_EQ(merged.sum(), oracle.sum());
  EXPECT_EQ(merged.min(), oracle.min());
  EXPECT_EQ(merged.max(), oracle.max());
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    ASSERT_EQ(merged.bucket_count(b), oracle.bucket_count(b)) << "bucket " << b;
  }
  EXPECT_EQ(w.dropped(), 0u);
}

TEST(WindowedHistogram, RotationDropsExactlyTheExpiredSlots) {
  WindowedHistogram w(1000, 4);  // slots [0,250) [250,500) [500,750) [750,1000)
  // One distinctive value per slot.
  w.record(100, 10);    // slot 0
  w.record(300, 20);    // slot 1
  w.record(600, 30);    // slot 2
  w.record(800, 40);    // slot 3
  // Advance one slot: slot 0 (value 10) falls out of the ring.
  Histogram merged;
  w.merged(/*now_ns=*/1100, w.sub_windows(), merged);
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.min(), 20u);
  EXPECT_EQ(merged.max(), 40u);
  // Advance far: everything expires at once (cap at ring size, no O(elapsed)
  // loop), the window comes back empty.
  Histogram empty;
  w.merged(/*now_ns=*/1'000'000, w.sub_windows(), empty);
  EXPECT_EQ(empty.count(), 0u);
}

TEST(WindowedHistogram, FastWindowSeesOnlyTheCurrentSlot) {
  WindowedHistogram w(1000, 4);
  w.record(100, 10);  // slot 0
  w.record(300, 20);  // slot 1 (current)
  Histogram fast;
  w.merged(/*now_ns=*/300, /*sub_count=*/1, fast);
  EXPECT_EQ(fast.count(), 1u);
  EXPECT_EQ(fast.max(), 20u);
  EXPECT_EQ(w.count(300, 1), 1u);
  EXPECT_EQ(w.count(300, w.sub_windows()), 2u);
}

TEST(WindowedHistogram, QuantileAccurateAcrossWindowBoundaries) {
  // Uniform 1..1000 spread over 8 slots; after rotating past the first two
  // slots the retained samples are still uniform, so p50/p99 of the merge
  // must stay within one bucket width (~3.1% + bucket granularity) of the
  // exact nearest-rank statistic over exactly the retained samples.
  WindowedHistogram w(8000, 8);
  std::vector<std::uint64_t> all;
  util::SplitMix64 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t t = rng.next() % 8000;
    const std::uint64_t v = 1 + rng.next() % 1000;
    w.record(t, v);
    all.push_back((t / 1000) * 1'000'000 + v);  // slot-tagged for the oracle
  }
  // Advance two slots: slots 0 and 1 expire.
  const std::uint64_t now = 8000 + 1999;
  std::vector<std::uint64_t> retained;
  for (const std::uint64_t tagged : all) {
    if (tagged / 1'000'000 >= 2) retained.push_back(tagged % 1'000'000);
  }
  ASSERT_FALSE(retained.empty());
  std::sort(retained.begin(), retained.end());
  Histogram merged;
  w.merged(now, w.sub_windows(), merged);
  ASSERT_EQ(merged.count(), retained.size());
  for (const double q : {0.5, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::max<double>(0.0, q * static_cast<double>(retained.size()) - 1));
    const double exact = static_cast<double>(retained[rank]);
    const double est = merged.quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.05 + 2.0) << "q=" << q;
  }
}

TEST(WindowedHistogram, StaleSamplesDropAndAreCounted) {
  WindowedHistogram w(1000, 4);
  w.record(5000, 1);  // jump forward: current slot = 20
  w.record(100, 99);  // t=100 is slot 0, long expired -> dropped
  EXPECT_EQ(w.dropped(), 1u);
  Histogram merged;
  w.merged(5000, w.sub_windows(), merged);
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_EQ(merged.max(), 1u);
  // A sample in a retained *past* slot still lands (near-monotone tolerance).
  w.record(4800, 7);  // slot 19, one behind current -> retained
  Histogram merged2;
  w.merged(5000, w.sub_windows(), merged2);
  EXPECT_EQ(merged2.count(), 2u);
  EXPECT_EQ(w.dropped(), 1u);
}

// Runs under TSan in CI (gtest_filter includes WindowedHistogram*): many
// writers into one window at fixed timestamps (no rotation) must lose
// nothing — the fast path is a relaxed slot check plus Histogram::record,
// both already data-race-free.
TEST(WindowedHistogramConcurrency, ParallelRecordersLoseNothing) {
  WindowedHistogram w(1'000'000, 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, t] {
      util::SplitMix64 rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // Timestamps within the current window span: slots 0..3, no expiry.
        w.record(rng.next() % 1'000'000, 1 + rng.next() % 4096);
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram merged;
  w.merged(999'999, w.sub_windows(), merged);
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(w.dropped(), 0u);
}

TEST(WindowedHistogramConcurrency, RecordersRaceRotationWithoutLosingRetained) {
  // Writers sweep time forward together; every sample lands in the current
  // or previous slot, so none may be dropped and the final ring must hold
  // everything recorded in the last window span.
  // Timestamps stay near-monotone, the precondition the window documents:
  // writer t records ticks t, t + kThreads, ..., and runs at most kMaxLead
  // samples ahead of the slowest writer. A preempted writer therefore
  // trails the newest tick by under kMaxLead * kThreads + kThreads ticks,
  // less than one 1000-tick sub-span. (A shared fetch_add clock let the
  // other writers run arbitrarily far ahead of a preempted one.)
  WindowedHistogram w(4000, 4);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  constexpr std::uint64_t kMaxLead = 100;
  std::array<std::atomic<std::uint64_t>, kThreads> done{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        for (;;) {
          std::uint64_t slowest = kPerThread;
          for (const auto& d : done) slowest = std::min(slowest, d.load());
          if (i <= slowest + kMaxLead) break;
          std::this_thread::yield();
        }
        w.record(i * kThreads + static_cast<std::uint64_t>(t), 1);
        done[static_cast<std::size_t>(t)].store(i + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t final_now = kPerThread * kThreads;
  // Everything recorded in the retained window is still there: the sweep
  // advanced by 1ns per sample, so the last span_ns() ticks are retained.
  EXPECT_EQ(w.dropped(), 0u);
  EXPECT_GE(w.count(final_now, w.sub_windows()), w.span_ns() - w.sub_span_ns());
}

// ---------------------------------------------------------------------------
// SloTracker: burn math + hysteresis
// ---------------------------------------------------------------------------

SloSpec test_spec() {
  SloSpec spec;
  spec.name = "e2e";
  spec.target_quantile = 0.99;  // budget: 1% bad
  spec.threshold_ns = 1000;
  spec.window_ns = 6000;
  spec.sub_windows = 6;
  spec.warn_burn = 1.0;
  spec.critical_burn = 2.0;
  spec.reopen_burn = 0.5;
  return spec;
}

TEST(SloTracker, BurnIsBadFractionOverAllowedFraction) {
  SloTracker tracker(test_spec());
  // 96 good + 4 bad = 4% bad over a 1% budget -> burn 4.0 in both windows
  // (all samples in one slot -> fast == slow), comfortably past critical_burn
  // (tests avoid the exact >= boundary, where FP division is one ulp shy).
  for (int i = 0; i < 96; ++i) tracker.record(10, 500);
  for (int i = 0; i < 4; ++i) tracker.record(10, 5000);
  const SloEval eval = tracker.evaluate(10);
  EXPECT_EQ(eval.good, 96u);
  EXPECT_EQ(eval.bad, 4u);
  EXPECT_NEAR(eval.slow_burn, 4.0, 1e-6);
  EXPECT_NEAR(eval.fast_burn, 4.0, 1e-6);
  // Budget: 1% of 100 samples = 1 allowed bad; 4 spent -> clamped to 0.
  EXPECT_NEAR(eval.budget_remaining, 0.0, 1e-9);
  EXPECT_EQ(eval.state, SloState::kCritical);
}

TEST(SloTracker, EmptyWindowIsHealthyWithFullBudget) {
  SloTracker tracker(test_spec());
  const SloEval eval = tracker.evaluate(0);
  EXPECT_EQ(eval.state, SloState::kHealthy);
  EXPECT_NEAR(eval.budget_remaining, 1.0, 1e-9);
  EXPECT_NEAR(eval.fast_burn, 0.0, 1e-9);
}

TEST(SloTracker, ViolationCountsAsBadSample) {
  SloTracker tracker(test_spec());
  for (int i = 0; i < 99; ++i) tracker.record(10, 500);
  tracker.record_violation(10);  // deadline abort: bad by definition
  const SloEval eval = tracker.evaluate(10);
  EXPECT_EQ(eval.bad, 1u);
  EXPECT_NEAR(eval.slow_burn, 1.0, 1e-6);
}

TEST(SloTracker, CapacityScalesBurnSoDegradedClustersTripEarlier) {
  SloTracker tracker(test_spec());
  for (int i = 0; i < 99; ++i) tracker.record(10, 500);
  tracker.record(10, 5000);  // 1% bad: burn 1.0 at full capacity
  EXPECT_NEAR(tracker.evaluate(10).slow_burn, 1.0, 1e-6);
  tracker.set_capacity(0.25);  // 3 of 4 replicas down: every burn quadruples
  EXPECT_NEAR(tracker.evaluate(10).slow_burn, 4.0, 1e-6);
  EXPECT_EQ(tracker.evaluate(10).state, SloState::kCritical)
      << "degraded capacity must trip the detector at unchanged traffic";
}

TEST(SloTracker, FastSpikeAloneIsWarningNotCritical) {
  // Bad samples only in the newest slot: fast burn is huge but the slow
  // window dilutes below critical_burn -> multi-window rule holds at Warning.
  SloSpec spec = test_spec();
  spec.target_quantile = 0.9;  // 10% budget, easier arithmetic
  SloTracker tracker(spec);
  // 5 slots of clean history (t in [0, 5000)), 100 samples each.
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 100; ++i) {
      tracker.record(static_cast<std::uint64_t>(s) * 1000 + 10, 500);
    }
  }
  // Newest slot: 30 bad out of 30 -> fast burn 10; slow: 30/530 ~ 5.7% bad
  // -> slow burn ~0.57, under warn... so push more: 80 bad.
  for (int i = 0; i < 80; ++i) tracker.record(5010, 5000);
  const SloEval eval = tracker.evaluate(5010);
  EXPECT_GT(eval.fast_burn, spec.critical_burn);
  EXPECT_GE(eval.slow_burn, spec.warn_burn);
  EXPECT_LT(eval.slow_burn, spec.critical_burn);
  EXPECT_EQ(eval.state, SloState::kWarning) << "fast spike alone must not latch Critical";
}

TEST(SloTracker, CriticalExitsHysteretically) {
  SloSpec spec = test_spec();
  SloTracker tracker(spec);
  // Trip it: all-bad traffic in slot 0.
  for (int i = 0; i < 100; ++i) tracker.record(10, 5000);
  ASSERT_EQ(tracker.evaluate(10).state, SloState::kCritical);
  // Burn cools but stays above reopen_burn: 1% bad -> burn 1.0 in the new
  // fast slot. Critical must hold (no flap back through Warning).
  for (int i = 0; i < 99; ++i) tracker.record(1010, 500);
  tracker.record(1010, 5000);
  EXPECT_EQ(tracker.evaluate(1010).state, SloState::kCritical)
      << "burn above reopen_burn may not exit Critical";
  // A clean fast window (burn 0 < reopen 0.5) re-opens.
  for (int i = 0; i < 50; ++i) tracker.record(2010, 500);
  const SloEval after = tracker.evaluate(2010);
  EXPECT_NE(after.state, SloState::kCritical);
}

TEST(SloTracker, NoFlappingWhileBurnHoversAtTheCriticalThreshold) {
  // Traffic alternates just above / just below critical_burn each slot.
  // Without hysteresis the state would toggle every evaluation; with it, the
  // signal latches Critical once and stays (burn never falls below
  // reopen_burn).
  SloSpec spec = test_spec();
  spec.target_quantile = 0.9;  // 10% budget
  SloTracker tracker(spec);
  int transitions = 0;
  SloState prev = SloState::kHealthy;
  for (int slot = 0; slot < 12; ++slot) {
    const std::uint64_t t = static_cast<std::uint64_t>(slot) * 1000 + 10;
    const int bad = slot % 2 == 0 ? 25 : 18;  // 25% / 18% bad: burn 2.5 / 1.8
    for (int i = 0; i < 100 - bad; ++i) tracker.record(t, 500);
    for (int i = 0; i < bad; ++i) tracker.record(t, 5000);
    const SloState s = tracker.evaluate(t).state;
    if (s != prev) ++transitions;
    prev = s;
  }
  EXPECT_EQ(prev, SloState::kCritical);
  EXPECT_LE(transitions, 2) << "tri-state signal flapped while burn hovered";
}

// ---------------------------------------------------------------------------
// SloMonitor: scopes, worst-of, publishing
// ---------------------------------------------------------------------------

TEST(SloMonitor, DisabledMonitorIsInert) {
  SloMonitor monitor;
  EXPECT_FALSE(monitor.enabled());
  monitor.observe("a", 10, 500);
  EXPECT_EQ(monitor.evaluate(10), SloState::kHealthy);
  EXPECT_EQ(monitor.total_sheds(), 0u);
}

TEST(SloMonitor, WorstScopeWins) {
  SloMonitor monitor({test_spec()});
  ASSERT_TRUE(monitor.enabled());
  for (int i = 0; i < 50; ++i) monitor.observe("calm", 10, 500);
  for (int i = 0; i < 50; ++i) monitor.observe("burning", 10, 5000);
  EXPECT_EQ(monitor.evaluate(10), SloState::kCritical);
  EXPECT_EQ(monitor.state(), SloState::kCritical);
  EXPECT_GT(monitor.worst_eval().fast_burn, 1.0);
}

TEST(SloMonitor, PublishesScopedInstrumentsWithDocumentedScaling) {
  SloMonitor monitor({test_spec()});
  for (int i = 0; i < 97; ++i) monitor.observe("wk", 10, 500);
  for (int i = 0; i < 3; ++i) monitor.observe("wk", 10, 5000);  // burn 3.0
  monitor.count_shed("wk");
  monitor.count_shed("wk");
  monitor.evaluate(10);
  Registry registry;
  monitor.publish(registry);
  EXPECT_EQ(registry.gauge("graphm.slo.e2e.wk.burn_rate").value(), 3000);  // milli
  EXPECT_EQ(registry.gauge("graphm.slo.e2e.wk.state").value(),
            static_cast<int>(SloState::kCritical));
  EXPECT_EQ(registry.counter("graphm.slo.e2e.wk.shed").value(), 2u);
  // 1% budget of 100 samples = 1 bad allowed, 3 spent -> 0 ppm remaining.
  EXPECT_EQ(registry.gauge("graphm.slo.e2e.wk.budget_remaining").value(), 0);
}

TEST(SloMonitor, StateNamesAreExhaustive) {
  EXPECT_STREQ(slo_state_name(SloState::kHealthy), "healthy");
  EXPECT_STREQ(slo_state_name(SloState::kWarning), "warning");
  EXPECT_STREQ(slo_state_name(SloState::kCritical), "critical");
}

}  // namespace
}  // namespace graphm::obs

// ---------------------------------------------------------------------------
// The closed loop on the simulated clock (cluster) and the live clock
// (JobService): tracking is free, acting sheds exactly the lowest-priority
// work, and everything replays bit-identically.
// ---------------------------------------------------------------------------

namespace graphm::cluster {
namespace {

graph::EdgeList slo_test_graph() { return test::small_rmat(1024, 20000, 31); }

/// Mirrors the golden fixture in test_cluster_faults.cpp — same graph, seed
/// and configs, so the same pinned hash must come out.
constexpr std::uint64_t kGoldenServiceHash = 0x690a2c7e75a0f08fULL;

std::vector<Submission> golden_submissions(const graph::EdgeList& g) {
  const auto specs = runtime::paper_mix(8, g.num_vertices(), 9);
  std::vector<Submission> submissions(8);
  for (std::size_t j = 0; j < 8; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 300'000;
    submissions[j].dataset = j % 2 == 0 ? "a" : "b";
  }
  return submissions;
}

TEST(SloClosedLoop, InertObjectiveLeavesGoldenTraceBitIdentical) {
  // SLO tracking enabled (objectives configured, observations recorded,
  // evaluation at every arrival) but the objective can never fire: the
  // fault-free trace must still match the pre-SLO golden pin — the detector
  // is pure computation until it acts.
  const auto g = slo_test_graph();
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[1].dataset = "b";
  backends[1].engine = Backend::kChaos;
  backends[1].num_nodes = 4;
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  obs::SloSpec inert;
  inert.name = "e2e";
  inert.threshold_ns = ~0ULL >> 1;  // nothing is ever bad
  config.objectives = {inert};
  ClusterService service(g, backends, config);

  service.run(golden_submissions(g));
  EXPECT_EQ(service.last_trace_hash(), kGoldenServiceHash)
      << "SLO tracking alone must not move the simulation";
  ASSERT_NE(service.last_slo(), nullptr);
  EXPECT_EQ(service.last_slo()->state(), obs::SloState::kHealthy);
}

/// Two replicas of one dataset under kAdaptive with a deliberately
/// trip-happy objective (threshold 0: every completion is a bad sample).
ClusterService adaptive_service(const graph::EdgeList& g,
                                std::uint64_t threshold_ns = 0) {
  std::vector<BackendConfig> backends(2);
  for (std::uint32_t b = 0; b < 2; ++b) {
    backends[b].dataset = "d";
    backends[b].num_nodes = 4;
    backends[b].replica_id = b;
    backends[b].policy = service::AdmissionPolicy::kAdaptive;
    backends[b].max_concurrent = 2;
  }
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  obs::SloSpec spec;
  spec.name = "e2e";
  spec.threshold_ns = threshold_ns;
  spec.window_ns = 60'000'000;  // 60ms sim window >> the whole run
  spec.sub_windows = 6;
  config.objectives = {spec};
  return ClusterService(g, backends, config);
}

std::vector<Submission> burst_submissions(const graph::EdgeList& g, std::size_t count,
                                          std::uint64_t slo_ns) {
  const auto specs = runtime::paper_mix(count, g.num_vertices(), 9);
  std::vector<Submission> submissions(count);
  for (std::size_t j = 0; j < count; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 300'000;
    submissions[j].dataset = "d";
    // Odd jobs carry a deadline; even jobs are best-effort — the shed
    // ordering test keys off this split.
    if (j % 2 == 1) {
      submissions[j].deadline_ns = service::deadline_from(submissions[j].arrival_ns, slo_ns);
    }
  }
  return submissions;
}

TEST(SloClosedLoop, AdaptiveShedsDeadlinelessWorkOnceCritical) {
  const auto g = slo_test_graph();
  auto service = adaptive_service(g);
  const auto submissions = burst_submissions(g, 16, /*slo_ns=*/1'000'000'000);

  service.run(submissions);
  const auto& reports = service.last_job_reports();
  const FaultStats& fstats = service.last_fault_stats();

  std::uint64_t shed = 0, shed_with_deadline = 0, completed = 0;
  for (const JobReport& r : reports) {
    if (r.outcome == service::Outcome::kSloShed) {
      ++shed;
      if (submissions[r.job].deadline_ns != service::kNoDeadline) ++shed_with_deadline;
    }
    if (r.outcome == service::Outcome::kCompleted) ++completed;
  }
  // The first completion trips the objective (threshold 0); every later
  // deadline-less arrival sheds. Deadlined jobs keep flowing (queue stays
  // under quota at this load).
  EXPECT_GE(shed, 1u) << "Critical never caused a shed";
  EXPECT_EQ(shed_with_deadline, 0u)
      << "adaptive admission shed deadlined work while under quota";
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(fstats.slo_shed, shed);
  ASSERT_NE(service.last_slo(), nullptr);
  EXPECT_EQ(service.last_slo()->total_sheds(), shed);
  EXPECT_EQ(service.last_slo()->state(), obs::SloState::kCritical);

  // Conservation with kSloShed in the outcome set.
  std::uint64_t sum = 0;
  for (const auto outcome :
       {service::Outcome::kCompleted, service::Outcome::kRejected,
        service::Outcome::kDeadlineShed, service::Outcome::kDeadlineAborted,
        service::Outcome::kFailoverShed, service::Outcome::kUnroutable,
        service::Outcome::kSloShed}) {
    for (const JobReport& r : reports) {
      if (r.outcome == outcome) ++sum;
    }
  }
  EXPECT_EQ(sum, submissions.size()) << "conservation law violated by SLO sheds";
}

TEST(SloClosedLoop, ShedDecisionsReplayBitIdentically) {
  const auto g = slo_test_graph();
  auto service = adaptive_service(g);
  const auto submissions = burst_submissions(g, 20, 1'000'000'000);
  StormConfig storm;
  storm.horizon_ns = 6'000'000;
  storm.crashes = 1;
  storm.slowdowns = 1;
  storm.partitions = 0;
  const FaultPlan plan = FaultPlan::storm(0xFA11, service.num_backends(), storm);

  service.run(submissions, plan);
  const std::uint64_t hash_a = service.last_trace_hash();
  const std::uint64_t sheds_a = service.last_fault_stats().slo_shed;
  const auto reports_a = service.last_job_reports();

  service.run(submissions, plan);
  EXPECT_EQ(service.last_trace_hash(), hash_a)
      << "SLO shed decisions did not replay deterministically";
  EXPECT_EQ(service.last_fault_stats().slo_shed, sheds_a);
  const auto& reports_b = service.last_job_reports();
  ASSERT_EQ(reports_a.size(), reports_b.size());
  for (std::size_t j = 0; j < reports_a.size(); ++j) {
    EXPECT_EQ(reports_a[j].outcome, reports_b[j].outcome) << "job " << j;
    EXPECT_EQ(reports_a[j].completion_ns, reports_b[j].completion_ns) << "job " << j;
  }
}

TEST(SloClosedLoop, SloShedTraceRecordsLandOnTheDetector) {
  const auto g = slo_test_graph();
  std::vector<BackendConfig> backends(2);
  for (std::uint32_t b = 0; b < 2; ++b) {
    backends[b].dataset = "d";
    backends[b].num_nodes = 4;
    backends[b].replica_id = b;
    backends[b].policy = service::AdmissionPolicy::kAdaptive;
    backends[b].max_concurrent = 2;
  }
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.record_trace = true;
  obs::SloSpec spec;
  spec.threshold_ns = 0;
  spec.window_ns = 60'000'000;
  config.objectives = {spec};
  ClusterService service(g, backends, config);
  const auto stats = service.run(burst_submissions(g, 16, 1'000'000'000));

  std::uint64_t shed_records = 0, state_changes = 0;
  for (const TraceRecord& r : service.last_trace()) {
    if (r.code == TraceCode::kJobSloShed) ++shed_records;
    if (r.code == TraceCode::kSloStateChange) ++state_changes;
  }
  EXPECT_EQ(shed_records, service.last_fault_stats().slo_shed);
  EXPECT_GE(state_changes, 1u) << "the tri-state transition never hit the trace";
  // The publish path carries the same story.
  obs::Registry registry;
  service.publish_metrics(registry, stats);
  EXPECT_EQ(registry.counter("graphm.cluster.slo_shed").value(),
            service.last_fault_stats().slo_shed);
  EXPECT_EQ(registry.gauge("graphm.slo.e2e.d.state").value(),
            static_cast<int>(obs::SloState::kCritical));
}

}  // namespace
}  // namespace graphm::cluster

namespace graphm::service {
namespace {

TEST(SloClosedLoopLive, AdaptiveServiceShedsWhileCriticalAndRecovers) {
  const auto g = test::small_rmat(256, 2000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.workers = 2;
  config.policy = AdmissionPolicy::kAdaptive;
  obs::SloSpec spec;
  spec.name = "e2e";
  spec.threshold_ns = 0;            // every completion is a bad sample
  spec.window_ns = 600'000'000'000; // 10 min: the whole test sits in one slot
  spec.sub_windows = 6;
  config.objectives = {spec};
  JobService svc(store, config);

  algos::JobSpec job;
  job.kind = algos::AlgorithmKind::kPageRank;
  job.max_iterations = 1;

  // First submission: window empty, objective Healthy, job admitted.
  auto h1 = svc.submit(job);
  ASSERT_TRUE(h1.valid());
  h1.await();
  ASSERT_EQ(h1.state(), JobState::kDone);

  // Its completion was a bad sample; the next deadline-less submission must
  // be shed by adaptive admission (client-visible as a rejection).
  auto h2 = svc.submit(job);
  EXPECT_EQ(h2.state(), JobState::kRejected) << "Critical did not shed";
  EXPECT_EQ(svc.slo_monitor().state(), obs::SloState::kCritical);
  EXPECT_EQ(svc.slo_monitor().total_sheds(), 1u);

  // A deadlined submission still flows while the queue is under quota.
  auto h3 = svc.submit(job, svc.now_ns() + 60'000'000'000ULL);
  h3.await();
  EXPECT_EQ(h3.state(), JobState::kDone) << "deadlined work shed while under quota";

  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.rejected, 1u);

  // The published snapshot names the objective per dataset.
  obs::Registry registry;
  svc.publish_metrics(registry);
  EXPECT_EQ(registry.counter("graphm.slo.e2e.default.shed").value(), 1u);
  EXPECT_EQ(registry.gauge("graphm.slo.e2e.default.state").value(),
            static_cast<int>(obs::SloState::kCritical));
  // Tracer health rides the same snapshot (satellite: obs self-observation).
  EXPECT_EQ(registry.counter("graphm.obs.tracer.dropped").value(), 0u);
}

TEST(SloClosedLoopLive, NoObjectivesMeansNoShedding) {
  const auto g = test::small_rmat(256, 2000);
  const grid::GridStore store = test::make_grid(g, 2);
  ServiceConfig config;
  config.workers = 2;
  config.policy = AdmissionPolicy::kAdaptive;  // adaptive with nothing to act on
  JobService svc(store, config);
  algos::JobSpec job;
  job.kind = algos::AlgorithmKind::kPageRank;
  job.max_iterations = 1;
  for (int i = 0; i < 4; ++i) {
    auto h = svc.submit(job);
    h.await();
    EXPECT_EQ(h.state(), JobState::kDone);
  }
  svc.drain();
  EXPECT_EQ(svc.stats().rejected, 0u);
  EXPECT_FALSE(svc.slo_monitor().enabled());
}

}  // namespace
}  // namespace graphm::service
