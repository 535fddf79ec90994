#include "cluster/cluster_service.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <memory>

namespace graphm::cluster {

std::vector<graph::EdgeList> shard_by_source(const graph::EdgeList& graph,
                                             std::size_t shards) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  std::vector<graph::EdgeList> result;
  result.reserve(count);
  if (count == 1) {
    result.emplace_back(graph.num_vertices(), graph.edges());
    return result;
  }
  // Prefix out-degrees give the contiguous source ranges with ~equal edge
  // counts; every shard keeps the full vertex space so roots stay valid.
  std::vector<std::uint64_t> degree(graph.num_vertices() + 1, 0);
  for (const graph::Edge& e : graph.edges()) ++degree[e.src + 1];
  for (std::size_t v = 1; v < degree.size(); ++v) degree[v] += degree[v - 1];

  std::vector<graph::VertexId> bounds;  // shard s covers [bounds[s], bounds[s+1])
  bounds.push_back(0);
  for (std::size_t s = 1; s < count; ++s) {
    const std::uint64_t target = graph.num_edges() * s / count;
    const auto it = std::lower_bound(degree.begin(), degree.end(), target);
    auto boundary = static_cast<graph::VertexId>(it - degree.begin());
    boundary = std::max(boundary, bounds.back());  // ranges stay monotone
    bounds.push_back(std::min<graph::VertexId>(boundary, graph.num_vertices()));
  }
  bounds.push_back(graph.num_vertices());

  // One bucketing pass: the prefix degrees give each shard's exact edge
  // count up front, and a binary search on the (sorted) bounds places each
  // edge. Duplicate bounds (clamped empty shards) resolve to the last shard
  // whose range actually contains the source.
  std::vector<std::vector<graph::Edge>> buckets(count);
  for (std::size_t s = 0; s < count; ++s) {
    buckets[s].reserve(degree[bounds[s + 1]] - degree[bounds[s]]);
  }
  for (const graph::Edge& e : graph.edges()) {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), e.src);
    buckets[static_cast<std::size_t>(it - bounds.begin()) - 1].push_back(e);
  }
  for (std::size_t s = 0; s < count; ++s) {
    result.emplace_back(graph.num_vertices(), std::move(buckets[s]));
  }
  return result;
}

ClusterService::ClusterService(const graph::EdgeList& graph,
                               std::vector<BackendConfig> backends,
                               ClusterServiceConfig config)
    : backends_(std::move(backends)), config_(std::move(config)) {
  assert(!backends_.empty());
  // Shard mapping — implicit (one shard per distinct dataset name, in
  // first-appearance order: the pre-replication layout, bit-identical for
  // unique-name configs) or explicit (shard_id / total_shards).
  bool explicit_shards = false;
  for (const BackendConfig& backend : backends_) {
    if (backend.total_shards != 0) explicit_shards = true;
  }
  std::size_t num_shards = 0;
  backend_shard_.resize(backends_.size());
  if (explicit_shards) {
    num_shards = backends_.front().total_shards;
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      assert(backends_[b].total_shards == num_shards);
      assert(backends_[b].shard_id < num_shards);
      backend_shard_[b] = backends_[b].shard_id;
    }
  } else {
    std::vector<std::string> names;
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      std::size_t index = names.size();
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == backends_[b].dataset) {
          index = i;
          break;
        }
      }
      if (index == names.size()) names.push_back(backends_[b].dataset);
      backend_shard_[b] = index;
    }
    num_shards = names.size();
  }
  shard_replicas_.resize(num_shards);
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    shard_replicas_[backend_shard_[b]].push_back(b);
  }
#ifndef NDEBUG
  // Replicas (same dataset name) must serve the same shard — routing by name
  // would otherwise silently read different data after a failover.
  for (std::size_t a = 0; a < backends_.size(); ++a) {
    for (std::size_t b = a + 1; b < backends_.size(); ++b) {
      if (backends_[a].dataset == backends_[b].dataset) {
        assert(backend_shard_[a] == backend_shard_[b]);
      }
    }
  }
#endif
  shards_ = shard_by_source(graph, num_shards);
  profile_cache_.resize(num_shards);
  placement_cache_.resize(backends_.size());
}

namespace {

bool same_spec(const algos::JobSpec& a, const algos::JobSpec& b) {
  return a.kind == b.kind && a.damping == b.damping &&
         a.max_iterations == b.max_iterations && a.root == b.root;
}

/// One submission's mutable serving record for the duration of a run().
/// Owned by RunContext::tickets (deque: stable addresses); every queue and
/// closure holds Ticket*, so a job keeps its identity across failovers.
struct Ticket {
  std::uint32_t id = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t deadline_ns = 0;
  std::uint32_t shard = 0;
  const dist::JobProfile* profile = nullptr;
  /// Replica set the job may run on (points into the service's routing
  /// table, or the run's all-backends list for unnamed submissions).
  const std::vector<std::size_t>* candidates = nullptr;
  std::uint32_t failover_attempts = 0;
  bool terminal = false;
  service::Outcome outcome = service::Outcome::kCompleted;
  std::uint32_t backend = kNoBackend;  // last backend it was admitted to
  std::uint64_t completion_ns = 0;
};

enum class Health : int { kAlive = 0, kSuspect = 1, kDead = 2 };

/// Per-backend serving state for one run(): admission queue + dispatch slots
/// + sample accumulators + health. Event callbacks hold raw pointers into
/// the run's deque, which never reallocates elements.
struct BackendState {
  std::uint32_t backend_id = 0;
  const BackendConfig* config = nullptr;
  std::unique_ptr<BackendSim> sim;

  /// The same admission policy the live service runs, on the simulated clock.
  service::AdmissionCore<Ticket*> admission;
  /// Bumped whenever a held batch leaves, voiding its pending release timer.
  std::uint64_t batch_epoch = 0;
  std::size_t running = 0;

  Health health = Health::kAlive;
  std::uint64_t last_beat_ns = 0;
  /// Overlapping crash windows: restart only when the last one clears.
  std::size_t crash_depth = 0;

  /// Counters as the run goes; summaries and the sim economy added at the end.
  BackendStats stats;
  std::vector<std::uint64_t> queue_wait_ns;
  std::vector<std::uint64_t> stream_ns;
  std::vector<std::uint64_t> e2e_ns;
  std::uint64_t first_arrival_ns = 0;
  std::uint64_t last_completion_ns = 0;

  [[nodiscard]] std::size_t outstanding() const { return admission.depth() + running; }
};

/// Everything one run() shares with its event closures. Stack-local in
/// run(), strictly outliving loop.run().
struct RunContext {
  EventLoop& loop;
  std::deque<BackendState>& states;
  FailoverConfig failover;
  FaultStats fstats;
  std::deque<Ticket> tickets;
  std::vector<std::size_t> all_backends;  // candidates of unnamed submissions
  /// Non-terminal tickets — with arrivals_remaining, the monitor's liveness
  /// condition (it stops rescheduling when no work can possibly remain, so
  /// EventLoop::run() terminates).
  std::uint64_t jobs_outstanding = 0;
  std::size_t arrivals_remaining = 0;
  /// SLO tracking on the simulated clock; nullptr/disabled when the config
  /// names no objectives (every call below guards on it).
  obs::SloMonitor* slo = nullptr;
};

/// Re-evaluates every objective at sim-now and traces the tri-state signal's
/// transitions. Called at admissions (where shed decisions are made), so the
/// DES stays single-threaded-deterministic: same arrivals, same windows,
/// same decisions. Emits nothing while the signal rests at Healthy.
obs::SloState evaluate_slo(RunContext& ctx, const BackendState& state) {
  const obs::SloState before = ctx.slo->state();
  const obs::SloState after = ctx.slo->evaluate(ctx.loop.now_ns());
  if (after != before) {
    ctx.loop.trace(TraceCode::kSloStateChange, state.backend_id, 0,
                   static_cast<std::uint64_t>(after));
  }
  return after;
}

/// Backend health folded into the detector as capacity: live (not
/// declared-dead) backends over total. Called on every dead/rejoin
/// transition; pure bookkeeping, no events, no trace.
void update_slo_capacity(RunContext& ctx) {
  if (ctx.slo == nullptr || !ctx.slo->enabled()) return;
  std::size_t live = 0;
  for (const BackendState& state : ctx.states) {
    if (state.health != Health::kDead) ++live;
  }
  ctx.slo->set_capacity(static_cast<double>(live) /
                        static_cast<double>(ctx.states.size()));
}

void try_dispatch(RunContext& ctx, BackendState& state);
void admit(RunContext& ctx, BackendState& state, Ticket* t, bool redispatch);
void retry_later(RunContext& ctx, Ticket* t);
void reroute(RunContext& ctx, Ticket* t);

/// Latches the ticket's terminal state; exactly one call wins, so every
/// submission lands in exactly one outcome bucket (the conservation law).
void finish(RunContext& ctx, Ticket* t, service::Outcome outcome) {
  if (t->terminal) return;
  t->terminal = true;
  t->outcome = outcome;
  t->completion_ns = ctx.loop.now_ns();
  if (ctx.jobs_outstanding > 0) --ctx.jobs_outstanding;
}

/// Failover gave up on the job: no live replica, or the retry budget is
/// spent. The one graceful-shed path (service::Outcome::kFailoverShed).
void shed(RunContext& ctx, Ticket* t) {
  ++ctx.fstats.failover_shed;
  if (t->backend != kNoBackend) ++ctx.states[t->backend].stats.failover_shed;
  ctx.loop.trace(TraceCode::kJobShed, t->backend, t->id, t->failover_attempts);
  finish(ctx, t, service::Outcome::kFailoverShed);
}

/// A deadline abort, at dispatch or mid-run: a miss and an SLO violation.
void count_deadline_abort(RunContext& ctx, BackendState& state, std::uint64_t now_ns) {
  ++state.stats.deadline_misses;
  ++state.stats.deadline_aborts;
  if (ctx.slo != nullptr && ctx.slo->enabled()) {
    ctx.slo->violation(state.config->dataset, now_ns);
  }
}

void dispatch_one(RunContext& ctx, BackendState& state, Ticket* t) {
  EventLoop& loop = ctx.loop;
  const bool cancellable =
      state.config->cancel_past_deadline && t->deadline_ns != service::kNoDeadline;
  if (cancellable && loop.now_ns() > t->deadline_ns) {
    // Shed at dispatch (JobService::cancel_past_deadline semantics): the
    // deadline passed while the job sat in the queue, so running it would
    // only burn the backend's disks and cores on a guaranteed miss. It is
    // as much an SLO violation as a mid-run abort (it failed in the queue).
    count_deadline_abort(ctx, state, loop.now_ns());
    loop.trace(TraceCode::kJobAborted, state.backend_id, t->id, t->deadline_ns);
    finish(ctx, t, service::Outcome::kDeadlineShed);
    return;
  }
  ++state.running;
  const std::uint64_t start_ns = loop.now_ns();
  state.queue_wait_ns.push_back(start_ns - t->arrival_ns);
  state.sim->start_job(
      t->id, *t->profile,
      [&ctx, &state, t, start_ns](JobEnd end) {
        EventLoop& loop = ctx.loop;
        const std::uint64_t completion = loop.now_ns();
        if (end == JobEnd::kFailed) {
          // The backend crashed under the job. No slot freed up in any
          // useful sense (the whole backend is down), so no try_dispatch —
          // the job goes to the failover path instead.
          ++state.stats.failed;
          if (state.running > 0) --state.running;
          retry_later(ctx, t);
          return;
        }
        state.last_completion_ns = std::max(state.last_completion_ns, completion);
        if (end == JobEnd::kAborted) {
          count_deadline_abort(ctx, state, completion);
          finish(ctx, t, service::Outcome::kDeadlineAborted);
        } else {
          ++state.stats.completed;
          state.stream_ns.push_back(completion - start_ns);
          state.e2e_ns.push_back(completion - t->arrival_ns);
          if (t->deadline_ns != service::kNoDeadline && completion > t->deadline_ns) {
            ++state.stats.deadline_misses;
          }
          if (ctx.slo != nullptr && ctx.slo->enabled()) {
            ctx.slo->observe(state.config->dataset, completion,
                             completion - t->arrival_ns);
          }
          finish(ctx, t, service::Outcome::kCompleted);
        }
        --state.running;
        try_dispatch(ctx, state);
      },
      cancellable ? t->deadline_ns : 0);
}

void try_dispatch(RunContext& ctx, BackendState& state) {
  if (state.sim->crashed()) return;  // nothing dispatches into a dead machine
  while (state.running < std::max<std::size_t>(1, state.config->max_concurrent) &&
         state.admission.has_ready()) {
    dispatch_one(ctx, state, state.admission.take());
  }
}

/// Schedules the job's next failover attempt after a capped exponential
/// backoff, or sheds it once the budget is spent. Every wait consumes budget,
/// so a job can never ping-pong forever against a permanently dead cluster.
void retry_later(RunContext& ctx, Ticket* t) {
  if (t->terminal) return;
  if (t->failover_attempts >= ctx.failover.retry_budget) {
    shed(ctx, t);
    return;
  }
  ++t->failover_attempts;
  ++ctx.fstats.retries;
  const auto shift = std::min<std::uint32_t>(t->failover_attempts - 1, 16);
  const std::uint64_t delay = std::min(ctx.failover.retry_backoff_cap_ns,
                                       ctx.failover.retry_backoff_ns << shift);
  ctx.loop.schedule_after(delay, [&ctx, t] {
    if (t->terminal) return;
    reroute(ctx, t);
  });
}

/// The least-outstanding candidate that is not declared dead (ties: lowest
/// index), also skipping crashed-but-undetected ones when `skip_crashed`;
/// states.size() when there is none.
std::size_t least_loaded(const std::deque<BackendState>& states,
                         const std::vector<std::size_t>& candidates, bool skip_crashed) {
  std::size_t best = states.size();
  for (const std::size_t b : candidates) {
    if (states[b].health == Health::kDead || (skip_crashed && states[b].sim->crashed())) {
      continue;
    }
    if (best == states.size() || states[b].outstanding() < states[best].outstanding()) {
      best = b;
    }
  }
  return best;
}

/// Re-admits the job on the least-loaded live replica. "Live" here excludes
/// both declared-dead backends and crashed-but-undetected ones — a failover
/// retry already knows something is wrong, so it gets the stronger check
/// fresh arrivals don't (those queue on an undetected crash and drain when
/// the monitor declares it dead).
void reroute(RunContext& ctx, Ticket* t) {
  const std::size_t best = least_loaded(ctx.states, *t->candidates, /*skip_crashed=*/true);
  if (best == ctx.states.size()) {
    retry_later(ctx, t);  // nobody alive right now; back off and try again
    return;
  }
  BackendState& state = ctx.states[best];
  ++ctx.fstats.redispatched_jobs;
  ++state.stats.redispatched_in;
  ctx.loop.trace(TraceCode::kJobRedispatched, state.backend_id, t->id,
                 t->failover_attempts);
  admit(ctx, state, t, /*redispatch=*/true);
}

void admit(RunContext& ctx, BackendState& state, Ticket* t, bool redispatch) {
  EventLoop& loop = ctx.loop;
  t->backend = state.backend_id;
  if (!redispatch) {
    if (state.stats.submitted++ == 0) state.first_arrival_ns = loop.now_ns();
    if (ctx.slo != nullptr && ctx.slo->enabled()) {
      // The detector is consulted at every arrival (pure computation: no
      // events, no randomness); only kAdaptive backends act on it, by the
      // same adaptive_sheds rule as the live service.
      const obs::SloState slo_state = evaluate_slo(ctx, state);
      if (state.config->policy == service::AdmissionPolicy::kAdaptive &&
          slo_state == obs::SloState::kCritical &&
          service::adaptive_sheds(t->deadline_ns, state.admission.depth(),
                                  state.config->adaptive_queue_quota,
                                  state.config->max_concurrent)) {
        ++state.stats.slo_shed;
        ++ctx.fstats.slo_shed;
        ctx.slo->count_shed(state.config->dataset);
        loop.trace(TraceCode::kJobSloShed, state.backend_id, t->id,
                   static_cast<std::uint64_t>(ctx.slo->worst_eval().fast_burn * 1e3));
        finish(ctx, t, service::Outcome::kSloShed);
        return;
      }
    }
    const service::Admitted admitted = state.admission.push(t, t->deadline_ns, loop.now_ns());
    if (admitted == service::Admitted::kRejected) {
      ++state.stats.rejected;
      loop.trace(TraceCode::kJobRejected, state.backend_id, t->id, state.admission.depth());
      finish(ctx, t, service::Outcome::kRejected);
      return;
    }
    if (admitted == service::Admitted::kHeld) {
      if (state.admission.held() == 1) {
        // The batch timer caps how long the oldest held job waits; a release
        // in the meantime bumps the epoch and turns this into a no-op.
        const std::uint64_t epoch = state.batch_epoch;
        loop.schedule_at(state.admission.release_at(), [&ctx, &state, epoch] {
          if (state.batch_epoch != epoch || !state.admission.holding()) return;
          ++state.batch_epoch;
          state.admission.release();
          try_dispatch(ctx, state);
        });
      }
      return;
    }
    if (admitted == service::Admitted::kReleased) ++state.batch_epoch;  // its timer is moot
  } else {
    // Failover re-admissions skip batching (they have waited enough) and the
    // depth bound (a drained queue must land somewhere, or jobs would be lost
    // to backpressure through no fault of the client's pacing).
    state.admission.push_ready(t, t->deadline_ns);
  }
  try_dispatch(ctx, state);
}

/// Declared dead: drain the whole admission queue to surviving replicas.
/// Jobs already dispatched are not here — they fail via the crash's
/// JobEnd::kFailed completions and retry on their own.
void declare_dead(RunContext& ctx, BackendState& state) {
  state.health = Health::kDead;
  ++ctx.fstats.failovers;
  ctx.loop.trace(TraceCode::kBackendDead, state.backend_id, 0,
                 static_cast<std::uint64_t>(state.admission.depth()));
  ++state.batch_epoch;  // cancels any pending batch-release timer
  for (Ticket* t : state.admission.drain_all()) {
    if (!t->terminal) reroute(ctx, t);
  }
  update_slo_capacity(ctx);
}

/// The heartbeat monitor, rescheduling itself every heartbeat interval while
/// work remains. A backend "beats" by being observed un-crashed at a tick.
/// Consumes no randomness and emits no trace while everyone is healthy, so
/// fault-free traces stay bit-identical to the pre-fault service.
void monitor_tick(RunContext& ctx) {
  const std::uint64_t now = ctx.loop.now_ns();
  for (BackendState& state : ctx.states) {
    if (!state.sim->crashed()) state.last_beat_ns = now;
    const std::uint64_t silent = now - state.last_beat_ns;
    switch (state.health) {
      case Health::kAlive:
        if (silent >= ctx.failover.suspect_after_ns) {
          state.health = Health::kSuspect;
          ++ctx.fstats.suspects;
          ctx.loop.trace(TraceCode::kBackendSuspect, state.backend_id, 0, silent);
        }
        break;
      case Health::kSuspect:
        if (silent == 0) {
          state.health = Health::kAlive;  // beat observed: a false alarm
        } else if (silent >= ctx.failover.dead_after_ns) {
          declare_dead(ctx, state);
        }
        break;
      case Health::kDead:
        if (silent == 0) {
          // The fault window ended and the machine is back: rejoin. Its
          // queue was drained at death, so it restarts empty and takes new
          // routing immediately.
          state.health = Health::kAlive;
          ++ctx.fstats.rejoins;
          ctx.loop.trace(TraceCode::kBackendRejoined, state.backend_id, 0, 0);
          update_slo_capacity(ctx);
          try_dispatch(ctx, state);
        }
        break;
    }
  }
  if (ctx.arrivals_remaining > 0 || ctx.jobs_outstanding > 0) {
    const std::uint64_t interval =
        std::max<std::uint64_t>(1, ctx.failover.heartbeat_interval_ns);
    ctx.loop.schedule_after(interval, [&ctx] { monitor_tick(ctx); });
  }
}

/// Lands one FaultEvent on its backend (and schedules the matching clear for
/// windowed faults).
void apply_fault(RunContext& ctx, const FaultEvent& fault) {
  BackendState& state = ctx.states[fault.backend];
  ++ctx.fstats.faults_injected;
  ++state.stats.faults_injected;
  ctx.loop.trace(TraceCode::kFaultInjected, fault.backend, 0,
                 static_cast<std::uint64_t>(fault.kind));
  switch (fault.kind) {
    case FaultKind::kCrash:
      ++ctx.fstats.crashes;
      ++state.stats.crashes;
      ++state.crash_depth;
      // crash() fails every in-flight job; their completion handlers run
      // synchronously here and queue the failover retries.
      state.sim->crash();
      break;
    case FaultKind::kSlowdown:
      ++ctx.fstats.slowdowns;
      state.sim->set_slowdown(fault.factor);
      break;
    case FaultKind::kPartition:
      ++ctx.fstats.partitions;
      state.sim->partition(fault.boundary);
      break;
  }
  if (fault.duration_ns == 0) return;  // permanent
  ctx.loop.schedule_after(fault.duration_ns, [&ctx, fault] {
    BackendState& state = ctx.states[fault.backend];
    ctx.loop.trace(TraceCode::kFaultCleared, fault.backend, 0,
                   static_cast<std::uint64_t>(fault.kind));
    switch (fault.kind) {
      case FaultKind::kCrash:
        if (state.crash_depth > 0 && --state.crash_depth == 0) {
          state.sim->restart();
          // Anything still queued (crash never got declared dead) runs now;
          // the monitor flips health back on its next beat.
          try_dispatch(ctx, state);
        }
        break;
      case FaultKind::kSlowdown:
        state.sim->set_slowdown(1.0);
        break;
      case FaultKind::kPartition:
        state.sim->heal_partition();
        break;
    }
  });
}

}  // namespace

const dist::JobProfile& ClusterService::profile_for(std::size_t shard,
                                                    const algos::JobSpec& spec) {
  std::deque<dist::JobProfile>& cache = profile_cache_[shard];
  for (const dist::JobProfile& profile : cache) {
    if (same_spec(profile.spec, spec)) return profile;
  }
  cache.push_back(dist::profile_job(shards_[shard], spec));
  return cache.back();
}

std::vector<BackendStats> ClusterService::run(const std::vector<Submission>& submissions,
                                              const FaultPlan& faults) {
  EventLoop loop(config_.des.seed, config_.des.record_trace);

  std::deque<BackendState> states;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const std::size_t shard = backend_shard_[b];
    states.emplace_back();
    BackendState& state = states.back();
    state.backend_id = static_cast<std::uint32_t>(b);
    state.config = &backends_[b];
    // The DES has always treated a zero depth bound as one slot.
    state.admission = service::AdmissionCore<Ticket*>(
        {backends_[b].policy, std::max<std::size_t>(1, backends_[b].max_queue_depth),
         backends_[b].batch_k, backends_[b].batch_max_wait_ns});
    if (placement_cache_[b].edge_share.empty()) {
      placement_cache_[b] = vertex_cut_placement(shards_[shard], backends_[b].num_nodes);
    }
    state.sim = std::make_unique<BackendSim>(
        loop, static_cast<std::uint32_t>(b), backends_[b].num_nodes, shards_[shard],
        config_.node, config_.des, backends_[b].engine, backends_[b].shared_structure,
        &placement_cache_[b]);
  }

  RunContext ctx{loop, states, config_.failover, {}, {}, {}, 0, submissions.size(), nullptr};
  ctx.all_backends.resize(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) ctx.all_backends[b] = b;

  // Fresh monitor per run (windows must not leak across runs — determinism
  // demands each run sees only its own history). Kept after the run for
  // publish_metrics / last_slo().
  auto slo_monitor = std::make_unique<obs::SloMonitor>(config_.objectives);
  ctx.slo = slo_monitor.get();

  // The heartbeat monitor starts at t=0 and outlives the last job; it emits
  // nothing and draws nothing while the cluster is healthy.
  loop.schedule_at(0, [&ctx] { monitor_tick(ctx); });

  // Fault injection: the plan replays in (time, backend, kind) order, each
  // event optionally delayed by a draw from the loop's dedicated fault
  // stream — the jitter stream never sees any of this, which is what keeps
  // an empty plan bit-identical to the pre-fault service.
  for (const FaultEvent& fault : faults.sorted()) {
    if (fault.backend >= backends_.size()) continue;
    std::uint64_t at_ns = fault.at_ns;
    if (config_.des.fault_jitter_ns > 0) {
      at_ns += loop.fault_rng().next_below(config_.des.fault_jitter_ns);
    }
    loop.schedule_at(at_ns, [&ctx, fault] { apply_fault(ctx, fault); });
  }

  unroutable_ = 0;
  std::uint32_t next_id = 0;
  for (const Submission& submission : submissions) {
    const std::uint32_t id = next_id++;
    loop.schedule_at(submission.arrival_ns, [this, &ctx, &states, &submission, id] {
      if (ctx.arrivals_remaining > 0) --ctx.arrivals_remaining;
      ctx.tickets.emplace_back();
      Ticket* t = &ctx.tickets.back();
      t->id = id;
      t->arrival_ns = submission.arrival_ns;
      t->deadline_ns = submission.deadline_ns;
      ++ctx.jobs_outstanding;
      // Routing: named datasets map to their shard's replica set; unnamed
      // submissions may run anywhere. The pick is the least-outstanding
      // non-dead candidate (ties: lowest index) — crashed-but-undetected
      // backends still take arrivals, which drain when the monitor declares
      // them dead.
      const std::vector<std::size_t>* candidates = &ctx.all_backends;
      if (!submission.dataset.empty()) {
        std::size_t named = backends_.size();
        for (std::size_t b = 0; b < backends_.size(); ++b) {
          if (backends_[b].dataset == submission.dataset) {
            named = b;
            break;
          }
        }
        if (named == backends_.size()) {
          ++unroutable_;
          finish(ctx, t, service::Outcome::kUnroutable);
          return;
        }
        candidates = &shard_replicas_[backend_shard_[named]];
      }
      const std::size_t target = least_loaded(states, *candidates, /*skip_crashed=*/false);
      t->candidates = candidates;
      if (target == states.size()) {
        // Every replica is already declared dead: graceful shed at arrival.
        shed(ctx, t);
        return;
      }
      const std::size_t shard = backend_shard_[target];
      t->shard = static_cast<std::uint32_t>(shard);
      // Failover must stay within the shard the job was profiled against —
      // replicas serve identical data, other shards do not.
      t->candidates = &shard_replicas_[shard];
      t->profile = &profile_for(shard, submission.spec);
      admit(ctx, states[target], t, /*redispatch=*/false);
    });
  }

  loop.run();

  std::vector<BackendStats> report;
  report.reserve(states.size());
  for (std::size_t b = 0; b < states.size(); ++b) {
    BackendState& state = states[b];
    BackendStats stats = std::move(state.stats);
    stats.dataset = backends_[b].dataset;
    stats.engine = backends_[b].engine;
    stats.shard = static_cast<std::uint32_t>(backend_shard_[b]);
    stats.replica_id = backends_[b].replica_id;
    stats.queue_wait = service::summarize_latency(std::move(state.queue_wait_ns));
    stats.stream_time = service::summarize_latency(std::move(state.stream_ns));
    stats.e2e = service::summarize_latency(std::move(state.e2e_ns));
    stats.sustained_jobs_per_s = service::sustained_jobs_per_s(
        stats.completed, state.first_arrival_ns, state.last_completion_ns);
    stats.structure_loads = state.sim->structure_loads();
    stats.network_gb = state.sim->network_bytes() / 1e9;
    stats.disk_gb = state.sim->disk_bytes() / 1e9;
    stats.replication = state.sim->replication();
    stats.feasible = state.sim->feasible();
    report.push_back(std::move(stats));
  }
  last_job_reports_.clear();
  last_job_reports_.reserve(ctx.tickets.size());
  for (const Ticket& t : ctx.tickets) {
    JobReport job_report;
    job_report.job = t.id;
    job_report.outcome = t.outcome;
    job_report.shard = t.shard;
    job_report.backend = t.backend;
    job_report.attempts = t.failover_attempts;
    job_report.completion_ns = t.completion_ns;
    last_job_reports_.push_back(job_report);
  }
  // Tickets are created in arrival-time order; reports read better (and
  // diff against submissions directly) in submission order.
  std::sort(last_job_reports_.begin(), last_job_reports_.end(),
            [](const JobReport& a, const JobReport& b) { return a.job < b.job; });
  last_fault_stats_ = ctx.fstats;
  last_slo_ = std::move(slo_monitor);
  last_trace_hash_ = loop.trace_hash();
  last_events_ = loop.events_processed();
  last_trace_ = loop.take_trace_records();
  return report;
}

void ClusterService::publish_metrics(obs::Registry& registry,
                                     const std::vector<BackendStats>& stats) const {
  registry.set_counter("graphm.cluster.unroutable", unroutable_);
  registry.set_counter("graphm.cluster.events", last_events_);
  const FaultStats& f = last_fault_stats_;
  registry.set_counter("graphm.cluster.faults_injected", f.faults_injected);
  registry.set_counter("graphm.cluster.crashes", f.crashes);
  registry.set_counter("graphm.cluster.slowdowns", f.slowdowns);
  registry.set_counter("graphm.cluster.partitions", f.partitions);
  registry.set_counter("graphm.cluster.suspects", f.suspects);
  registry.set_counter("graphm.cluster.failovers", f.failovers);
  registry.set_counter("graphm.cluster.rejoins", f.rejoins);
  registry.set_counter("graphm.cluster.redispatched_jobs", f.redispatched_jobs);
  registry.set_counter("graphm.cluster.retries", f.retries);
  registry.set_counter("graphm.cluster.failover_shed", f.failover_shed);
  registry.set_counter("graphm.cluster.slo_shed", f.slo_shed);
  if (last_slo_ != nullptr) last_slo_->publish(registry);

  for (std::size_t b = 0; b < stats.size(); ++b) {
    const BackendStats& s = stats[b];
    const std::string prefix = "graphm.cluster.backend" + std::to_string(b) + ".";
    registry.set_counter(prefix + "submitted", s.submitted);
    registry.set_counter(prefix + "rejected", s.rejected);
    registry.set_counter(prefix + "completed", s.completed);
    registry.set_counter(prefix + "deadline_misses", s.deadline_misses);
    registry.set_counter(prefix + "deadline_aborts", s.deadline_aborts);
    registry.set_counter(prefix + "failed", s.failed);
    registry.set_counter(prefix + "redispatched_in", s.redispatched_in);
    registry.set_counter(prefix + "failover_shed", s.failover_shed);
    registry.set_counter(prefix + "slo_shed", s.slo_shed);
    registry.set_counter(prefix + "faults_injected", s.faults_injected);
    registry.set_counter(prefix + "crashes", s.crashes);
  }
}

}  // namespace graphm::cluster
