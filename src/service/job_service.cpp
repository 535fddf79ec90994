#include "service/job_service.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"

namespace graphm::service {

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kShared: return "service-shared";
    case ExecMode::kIsolated: return "isolated";
  }
  return "?";
}

const JobRecord& JobHandle::await() const {
  static JobRecord rejected;
  rejected.state.store(JobState::kRejected, std::memory_order_release);
  if (record_ == nullptr) return rejected;
  MutexLock lock(record_->mutex);
  while (!record_->terminal()) lock.wait(record_->cv);
  return *record_;
}

JobService::JobService(const storage::PartitionedStore& store, ServiceConfig config,
                       std::string dataset_name)
    : JobService(std::vector<DatasetSpec>{{std::move(dataset_name), &store}},
                 std::move(config)) {}

JobService::JobService(std::vector<DatasetSpec> datasets, ServiceConfig config)
    : config_(std::move(config)),
      platform_(config_.platform),
      queue_({config_.policy, config_.max_queue_depth, config_.batch_k,
              config_.batch_max_wait_ns}),
      groups_(datasets.size()),
      slo_(config_.objectives) {
  datasets_.reserve(datasets.size());
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    Dataset dataset;
    dataset.name = datasets[d].name;
    dataset.store = datasets[d].store;
    dataset.engine = std::make_unique<grid::StreamEngine>(*dataset.store, platform_,
                                                          config_.stream);
    if (config_.mode == ExecMode::kShared) {
      dataset.graphm = std::make_unique<core::GraphM>(*dataset.store, platform_,
                                                      config_.graphm);
      dataset.graphm->init();
    }
    groups_.set_dataset_name(d, dataset.name);
    datasets_.push_back(std::move(dataset));
  }
  // Labelling is preprocessing (Table 3); the serving clock starts cold.
  platform_.page_cache().reset();
  clock_.reset();
  start_workers();
}

JobService::~JobService() { shutdown(); }

void JobService::start_workers() {
  const std::size_t count = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  // Ready once every worker waits for work, so a batch submitted right away
  // is released to all of them.
  queue_.await_idle(count);
}

JobHandle JobService::submit(const algos::JobSpec& spec, std::uint64_t deadline_ns,
                             std::size_t dataset) {
  collector_.on_submit();
  auto record = std::make_shared<JobRecord>();
  std::uint32_t id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  if (id == core::kPreprocessJobId) id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  record->job_id = id;
  record->dataset = dataset;
  record->spec = spec;
  record->deadline_ns = deadline_ns;
  record->outcome.spec = spec;
  record->outcome.modeled_cores = config_.modeled_cores;
  record->outcome.arrival_ns = now_ns();

  // Closed-loop shedding (kAdaptive) by the adaptive_sheds rule while the
  // burn-rate signal is Critical; admitting re-opens on its own when the
  // fast window cools below reopen_burn (the monitor's hysteresis).
  const bool slo_shed =
      config_.policy == AdmissionPolicy::kAdaptive && slo_.enabled() &&
      dataset < datasets_.size() &&
      slo_.evaluate(record->outcome.arrival_ns) == obs::SloState::kCritical &&
      adaptive_sheds(deadline_ns, queue_.depth(), config_.adaptive_queue_quota,
                     config_.workers);

  {
    MutexLock lock(lifecycle_mutex_);
    ++unfinished_;
  }
  if (slo_shed || dataset >= datasets_.size() ||
      shut_down_.load(std::memory_order_acquire) ||
      !queue_.push(record, record->outcome.arrival_ns)) {
    {
      MutexLock lock(lifecycle_mutex_);
      --unfinished_;
    }
    // A drain() may be sleeping on the count this submission briefly raised.
    idle_cv_.notify_all();
    collector_.on_reject();
    record->state.store(JobState::kRejected, std::memory_order_release);
    record->cv.notify_all();
    obs::Tracer& tracer = obs::Tracer::global();
    if (slo_shed) {
      // Client-visible as a rejection; accounted separately under
      // graphm.slo.<objective>.<dataset>.shed.
      slo_.count_shed(datasets_[dataset].name);
      if (tracer.enabled()) {
        tracer.instant(tracer.track("slo"), "slo shed", tracer.now_ns(), record->job_id,
                       static_cast<std::uint64_t>(slo_.worst_eval().fast_burn * 1e3));
      }
    } else if (tracer.enabled()) {
      tracer.instant(tracer.track("admission"), "reject", tracer.now_ns(), record->job_id);
    }
    return JobHandle(record);
  }
  // Admission wait renders as an async span (queued jobs overlap without
  // nesting): 'b' here, 'e' when a worker dispatches — matched by job id.
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.async_begin(tracer.track("admission"), "admission wait", tracer.now_ns(),
                       record->job_id);
  }
  return JobHandle(record);
}

void JobService::worker_loop(std::size_t worker_index) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Only when tracing is on: naming allocates this thread's ring, and the
    // disabled path must stay allocation-free.
    char name[32];
    std::snprintf(name, sizeof(name), "svc-worker %zu", worker_index);
    tracer.name_thread_track(name);
  }
  const auto clock = [this] { return now_ns(); };
  for (;;) {
    JobRecordPtr job = queue_.pop(clock);
    if (job == nullptr) return;  // queue closed and drained
    execute(job);
  }
}

void JobService::execute(const JobRecordPtr& job) {
  Dataset& dataset = datasets_[job->dataset];

  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = tracer.enabled();
  char span_name[32];
  std::uint32_t worker_track = 0;
  if (tracing) {
    worker_track = tracer.thread_track();
    tracer.async_end(tracer.track("admission"), "admission wait", tracer.now_ns(),
                     job->job_id);
    std::snprintf(span_name, sizeof(span_name), "job %u", job->job_id);
  }

  if (config_.cancel_past_deadline && job->deadline_ns != 0 && now_ns() > job->deadline_ns) {
    // Shed at dispatch: the deadline passed while the job sat in the queue.
    if (tracing) {
      tracer.instant(worker_track, "shed at dispatch", tracer.now_ns(), job->job_id);
    }
    job->missed_deadline = true;
    queue_.arrive(*job, /*wait=*/false);
    job->outcome.start_ns = now_ns();
    job->outcome.completion_ns = job->outcome.start_ns;
    finish(job, JobState::kCancelled, /*started=*/false);
    return;
  }

  // Covers dispatch -> completion on this worker's track; the engine's
  // iteration/partition spans record on the same thread track, so they nest
  // inside this one in the viewer.
  obs::Span job_span(tracer, worker_track, tracing ? span_name : "", job->job_id);

  job->state.store(JobState::kRunning, std::memory_order_release);
  const core::SharingController::Stats sharing_before =
      dataset.graphm ? dataset.graphm->controller().stats() : core::SharingController::Stats{};
  groups_.job_started(job->dataset, now_ns(), sharing_before);
  collector_.on_start(now_ns(), groups_.running_total());

  std::unique_ptr<grid::PartitionLoader> loader;
  if (dataset.graphm) {
    loader = dataset.graphm->make_loader(job->job_id);
  } else {
    loader = std::make_unique<grid::DefaultLoader>(*dataset.store, platform_);
  }
  auto algorithm = algos::make_algorithm(job->spec);

  grid::JobControl control;
  if (config_.cancel_past_deadline && job->deadline_ns != 0) {
    const std::uint64_t deadline = job->deadline_ns;
    control.should_cancel = [this, deadline] { return now_ns() > deadline; };
  }
  // A batch member waits here, registered but not streaming, for its batch.
  queue_.arrive(*job, /*wait=*/true);

  job->outcome.start_ns = now_ns();
  job->outcome.stats = dataset.engine->run_job(job->job_id, *algorithm, *loader, &control);
  job->outcome.completion_ns = now_ns();
  if (config_.record_results && !job->outcome.stats.cancelled) {
    job->outcome.result = algorithm->result();
  }

  // Modeled latency: queue wait (measured) + the metrics.hpp per-job time
  // composition (wall share + DRAM stall over the modeled cores + serial
  // disk stall).
  const auto cache = platform_.llc().job_stats(job->job_id);
  job->outcome.mem_stall_ns = static_cast<std::uint64_t>(
      static_cast<double>(cache.misses) * config_.dram_latency_s * 1e9);
  job->modeled_latency_ns = job->outcome.queue_wait_ns() + job->outcome.job_time_ns();
  job->missed_deadline =
      job->deadline_ns != 0 && job->outcome.completion_ns > job->deadline_ns;

  finish(job, job->outcome.stats.cancelled ? JobState::kCancelled : JobState::kDone,
         /*started=*/true);
}

void JobService::finish(const JobRecordPtr& job, JobState terminal, bool started) {
  const Dataset& dataset = datasets_[job->dataset];
  const core::SharingController::Stats sharing_after =
      dataset.graphm ? dataset.graphm->controller().stats() : core::SharingController::Stats{};
  if (started) groups_.job_finished(job->dataset, now_ns(), sharing_after);
  collector_.on_finish(job->outcome, job->modeled_latency_ns,
                       terminal == JobState::kCancelled, job->missed_deadline, now_ns(),
                       groups_.running_total());

  if (slo_.enabled()) {
    // Completions feed the window with their e2e latency (late completions
    // land over the threshold on their own); cancellations — shed at
    // dispatch or aborted mid-run — are unconditional violations.
    const std::uint64_t now = now_ns();
    if (terminal == JobState::kDone) {
      slo_.observe(dataset.name, now,
                   job->outcome.completion_ns - job->outcome.arrival_ns);
    } else {
      slo_.violation(dataset.name, now);
    }
    evaluate_slo(now);
  }

  {
    MutexLock lock(job->mutex);
    job->state.store(terminal, std::memory_order_release);
  }
  job->cv.notify_all();
  {
    MutexLock lock(lifecycle_mutex_);
    --unfinished_;
  }
  idle_cv_.notify_all();
}

void JobService::evaluate_slo(std::uint64_t now) {
  const obs::SloState before = slo_.state();
  const obs::SloState after = slo_.evaluate(now);
  if (after == before) return;
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // The detector firing renders next to the latency spans that caused it.
    const std::string name = std::string("slo ") + obs::slo_state_name(after);
    tracer.instant(tracer.track("slo"), name, tracer.now_ns(), 0,
                   static_cast<std::uint64_t>(slo_.worst_eval().fast_burn * 1e3));
  }
}

void JobService::drain() {
  queue_.flush();
  MutexLock lock(lifecycle_mutex_);
  while (unfinished_ != 0) lock.wait(idle_cv_);
}

void JobService::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  drain();
  queue_.close();  // workers exit when pop() drains to nullptr
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServiceStats JobService::stats() const {
  return collector_.snapshot(groups_.records(), std::max<std::size_t>(1, config_.workers));
}

core::SharingController::Stats JobService::sharing_stats(std::size_t dataset) const {
  const Dataset& d = datasets_.at(dataset);
  return d.graphm ? d.graphm->controller().stats() : core::SharingController::Stats{};
}

void JobService::publish_metrics(obs::Registry& registry) const {
  collector_.publish_metrics(registry);
  registry.set_gauge("graphm.service.queue_depth",
                     static_cast<std::int64_t>(queue_.depth()));
  registry.set_gauge("graphm.service.workers",
                     static_cast<std::int64_t>(std::max<std::size_t>(1, config_.workers)));

  // Sharing economy, summed over every dataset's controller (kShared only).
  core::SharingController::Stats sharing{};
  bool any_shared = false;
  for (const Dataset& dataset : datasets_) {
    if (!dataset.graphm) continue;
    any_shared = true;
    const core::SharingController::Stats s = dataset.graphm->controller().stats();
    sharing.partition_loads += s.partition_loads;
    sharing.attaches += s.attaches;
    sharing.mid_round_attaches += s.mid_round_attaches;
    sharing.suspensions += s.suspensions;
    sharing.chunk_barriers += s.chunk_barriers;
    sharing.snapshot_copies += s.snapshot_copies;
    sharing.mid_round_detaches += s.mid_round_detaches;
  }
  if (any_shared) {
    registry.set_counter("graphm.sharing.partition_loads", sharing.partition_loads);
    registry.set_counter("graphm.sharing.attaches", sharing.attaches);
    registry.set_counter("graphm.sharing.mid_round_attaches", sharing.mid_round_attaches);
    registry.set_counter("graphm.sharing.suspensions", sharing.suspensions);
    registry.set_counter("graphm.sharing.chunk_barriers", sharing.chunk_barriers);
    registry.set_counter("graphm.sharing.snapshot_copies", sharing.snapshot_copies);
    registry.set_counter("graphm.sharing.mid_round_detaches", sharing.mid_round_detaches);
  }

  // Simulated platform totals (the paper's hardware-counter view).
  const sim::CacheStats llc = platform_.llc().total_stats();
  registry.set_counter("graphm.sim.llc.accesses", llc.accesses);
  registry.set_counter("graphm.sim.llc.misses", llc.misses);
  registry.set_counter("graphm.sim.llc.bytes_swapped_in", llc.bytes_swapped_in);
  const sim::IoStats io = platform_.page_cache().total_stats();
  registry.set_counter("graphm.sim.page_cache.read_bytes", io.read_bytes);
  registry.set_counter("graphm.sim.page_cache.disk_read_bytes", io.disk_read_bytes);
  registry.set_counter("graphm.sim.page_cache.disk_requests", io.disk_requests);
  registry.set_counter("graphm.sim.page_cache.virtual_io_ns", io.virtual_io_ns);
  registry.set_gauge("graphm.sim.memory.peak_bytes",
                     static_cast<std::int64_t>(platform_.memory().peak_total()));

  // SLO accounting (when objectives are configured) and the flight
  // recorder's own health — the observers observe themselves.
  slo_.publish(registry);
  obs::publish_tracer_metrics(registry, obs::Tracer::global());
}

std::string JobService::metrics_json() const {
  obs::Registry registry;
  publish_metrics(registry);
  return registry.json();
}

}  // namespace graphm::service
