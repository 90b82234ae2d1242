#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "aiwc/aiwc.h"
#include "common/error.h"
#include "common/log.h"
#include "prof/prof.h"
#include "sim/sanitizer.h"
#include "virt/virt.h"

namespace gpc::serve {

namespace {
// Backoff-jitter salt for the serve-level build retry ladder (distinct from
// the harness session salts so jitter streams do not alias).
constexpr std::uint64_t kSaltServeBuild = 0x44;
}  // namespace

const char* class_name(JobClass c) {
  switch (c) {
    case JobClass::Ok: return "OK";
    case JobClass::Deg: return "DEG";
    case JobClass::Abt: return "ABT";
    case JobClass::Shed: return "SHED";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Internal structures

struct JobHandle::State {
  std::mutex m;
  std::condition_variable cv;
  std::atomic<bool> claimed{false};  // exactly-once completion latch
  std::atomic<bool> done{false};
  Completion completion;
};

bool JobHandle::done() const {
  GPC_REQUIRE(state_ != nullptr, "empty JobHandle");
  return state_->done.load(std::memory_order_acquire);
}

const Completion& JobHandle::wait() const {
  GPC_REQUIRE(state_ != nullptr, "empty JobHandle");
  std::unique_lock<std::mutex> lk(state_->m);
  state_->cv.wait(lk, [&] { return state_->done.load(std::memory_order_acquire); });
  return state_->completion;
}

struct Server::Job {
  JobSpec spec;
  std::shared_ptr<JobHandle::State> state;
  std::uint64_t id = 0;
  int shard = -1;
  int queue_depth = 0;  // shard depth observed at dequeue (incl. this job)
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = 0;
  bool probe = false;          // HalfOpen breaker probe
  Breaker* breaker = nullptr;  // stable (owned by breakers_)
};

struct Server::Shard {
  std::mutex m;
  std::deque<Job> q;
};

struct Server::Breaker {
  enum class St : std::uint8_t { Closed, Open, HalfOpen };
  std::string key;
  St st = St::Closed;
  int consecutive = 0;          // consecutive DeviceFault completions
  std::int64_t open_until_ns = 0;
  bool probing = false;         // HalfOpen probe in flight
};

struct Server::WorkerState {
  // One session per (device, toolchain, tenant), reused across jobs so the
  // simulated context/queue setup cost amortises like a real driver's.
  std::unordered_map<std::string, std::unique_ptr<harness::DeviceSession>>
      sessions;
};

// ---------------------------------------------------------------------------
// Server lifecycle

Server::Server(ServeConfig cfg) : cfg_(cfg), policy_(resil::active_policy()) {
  (void)sim::sanitize_options_from_env();
  (void)aiwc::enabled_from_env();
  GPC_REQUIRE(cfg_.shards >= 1 && cfg_.queue_cap >= 1 && cfg_.batch >= 1,
              "invalid ServeConfig");
  int workers = cfg_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  cfg_.workers = workers;
  shards_.reserve(cfg_.shards);
  for (int i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Server::~Server() { shutdown(); }

void Server::set_policy(const resil::Policy& p) {
  std::lock_guard<std::mutex> lk(breaker_mutex_);
  policy_ = p;
}

void Server::attach_virt(virt::VirtualDeviceManager* mgr) { virt_mgr_ = mgr; }

void Server::pause() { paused_.store(true, std::memory_order_release); }

void Server::resume() {
  paused_.store(false, std::memory_order_release);
  idle_cv_.notify_all();
}

void Server::drain() {
  std::unique_lock<std::mutex> lk(drain_mutex_);
  drain_cv_.wait(lk, [&] {
    return finished_.load(std::memory_order_acquire) ==
           accepted_.load(std::memory_order_acquire);
  });
}

void Server::shutdown() {
  accepting_.store(false, std::memory_order_release);
  resume();  // a paused server must still drain its queue
  drain();
  stop_.store(true, std::memory_order_release);
  idle_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Exactly-once backstop: a submit that passed the accepting_ fast check
  // concurrently with this shutdown may have enqueued after drain()
  // returned. Sweep every shard so no accepted job is ever orphaned.
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->m);
    while (!sp->q.empty()) {
      Job job = std::move(sp->q.front());
      sp->q.pop_front();
      shed_job(job, "server shut down before execution");
      finished_.fetch_add(1, std::memory_order_release);
    }
  }
}

Server::Stats Server::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.ok = class_counts_[0].load(std::memory_order_relaxed);
  s.deg = class_counts_[1].load(std::memory_order_relaxed);
  s.abt = class_counts_[2].load(std::memory_order_relaxed);
  s.shed = class_counts_[3].load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  const CompiledKernelCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  return s;
}

// ---------------------------------------------------------------------------
// Submission / admission

JobHandle Server::submit(JobSpec spec) {
  GPC_REQUIRE(spec.kernel != nullptr, "serve: job has no kernel");
  GPC_REQUIRE(spec.device != nullptr, "serve: job has no device");
  GPC_REQUIRE(spec.grid.count() > 0 && spec.block.count() > 0,
              "serve: empty grid or block");
  GPC_REQUIRE(spec.kernel->textures.empty(),
              "serve: texture kernels are not servable (bind_texture is a "
              "session-scoped side channel)");
  for (const JobArg& a : spec.args) {
    GPC_REQUIRE(!a.is_buffer || !a.bytes.empty(),
                "serve: empty buffer argument");
  }
  if (spec.tenant >= 0) {
    GPC_REQUIRE(virt_mgr_ != nullptr,
                "serve: tenant job without attach_virt()");
    GPC_REQUIRE(spec.tenant < virt_mgr_->tenants(),
                "serve: tenant id out of range");
  }

  Job job;
  job.spec = std::move(spec);
  job.state = std::make_shared<JobHandle::State>();
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.submit_ns = log::now_ns();
  JobHandle h;
  h.state_ = job.state;
  submitted_.fetch_add(1, std::memory_order_relaxed);

  if (!accepting_.load(std::memory_order_acquire)) {
    shed_job(job, "server is shut down");
    return h;
  }

  const int nshards = static_cast<int>(shards_.size());
  const std::uint64_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < nshards; ++i) {
    const int idx = static_cast<int>((start + i) % nshards);
    Shard& s = *shards_[idx];
    std::unique_lock<std::mutex> lk(s.m);
    // Re-checked under the shard lock: a shutdown that swept this shard
    // cannot race a late push past it (the sweep also locks every shard
    // after accepting_ is cleared).
    if (!accepting_.load(std::memory_order_acquire)) break;
    if (static_cast<int>(s.q.size()) >= cfg_.queue_cap) continue;
    job.shard = idx;
    accepted_.fetch_add(1, std::memory_order_release);
    const std::uint64_t depth = s.q.size() + 1;
    s.q.push_back(std::move(job));
    lk.unlock();
    std::uint64_t prev = max_queue_depth_.load(std::memory_order_relaxed);
    while (prev < depth && !max_queue_depth_.compare_exchange_weak(
                               prev, depth, std::memory_order_relaxed)) {
    }
    idle_cv_.notify_one();
    return h;
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    shed_job(job, "server is shut down");
    return h;
  }
  // Bounded admission: reject-with-status, never block-forever.
  shed_job(job, "admission rejected: all " + std::to_string(nshards) +
                    " shard queues at capacity " +
                    std::to_string(cfg_.queue_cap));
  return h;
}

void Server::shed_job(Job& job, const std::string& reason) {
  Completion c;
  c.cls = JobClass::Shed;
  c.status = class_name(JobClass::Shed);
  c.detail = reason;
  resil::counters().shed.fetch_add(1, std::memory_order_relaxed);
  complete_job(job, std::move(c));
}

void Server::complete_job(Job& job, Completion&& c) {
  c.job_id = job.id;
  c.submit_ns = job.submit_ns;
  c.start_ns = job.start_ns != 0 ? job.start_ns : job.submit_ns;
  c.complete_ns = log::now_ns();

  auto st = job.state;
  GPC_CHECK(!st->claimed.exchange(true, std::memory_order_acq_rel),
            "serve: job completed twice (exactly-once violation)");
  class_counts_[static_cast<int>(c.cls)].fetch_add(1,
                                                   std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);

  if (prof::enabled()) {
    prof::ServeRecord r;
    r.job_id = c.job_id;
    r.cls = c.status;
    r.kernel = job.spec.kernel ? job.spec.kernel->name : std::string();
    r.device = job.spec.device ? job.spec.device->short_name : std::string();
    r.shard = job.shard;
    r.batch = c.batch;
    r.queue_depth = job.queue_depth;
    r.cache_hit = c.cache_hit;
    r.queue_ns = c.start_ns - c.submit_ns;
    r.total_ns = c.complete_ns - c.submit_ns;
    prof::recorder().record_serve(std::move(r));
  }

  {
    std::lock_guard<std::mutex> lk(st->m);
    st->completion = std::move(c);
    st->done.store(true, std::memory_order_release);
  }
  st->cv.notify_all();
  if (job.spec.on_complete) job.spec.on_complete(st->completion);
}

// ---------------------------------------------------------------------------
// Workers

namespace {
std::string session_key(const JobSpec& spec) {
  return spec.device->short_name + "|" +
         (spec.toolchain == arch::Toolchain::Cuda ? "cuda" : "ocl") + "|t" +
         std::to_string(spec.tenant);
}
}  // namespace

std::vector<Server::Job> Server::claim_batch(int worker_id) {
  const int nshards = static_cast<int>(shards_.size());
  for (int i = 0; i < nshards; ++i) {
    Shard& s = *shards_[(worker_id + i) % nshards];
    std::lock_guard<std::mutex> lk(s.m);
    if (s.q.empty()) continue;
    const int depth = static_cast<int>(s.q.size());
    const std::int64_t now = log::now_ns();
    std::vector<Job> batch;
    batch.push_back(std::move(s.q.front()));
    s.q.pop_front();
    const std::string key = session_key(batch.front().spec);
    // Coalesce a contiguous run of same-(device, toolchain, tenant) jobs so
    // they execute back to back on one session without re-queue round trips.
    while (static_cast<int>(batch.size()) < cfg_.batch && !s.q.empty() &&
           session_key(s.q.front().spec) == key) {
      batch.push_back(std::move(s.q.front()));
      s.q.pop_front();
    }
    for (Job& j : batch) {
      j.start_ns = now;
      j.queue_depth = depth;
    }
    return batch;
  }
  return {};
}

void Server::worker_main(int worker_id) {
  WorkerState ws;
  while (!stop_.load(std::memory_order_acquire)) {
    if (paused_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lk(idle_mutex_);
      idle_cv_.wait_for(lk, std::chrono::milliseconds(1));
      continue;
    }
    std::vector<Job> batch = claim_batch(worker_id);
    if (batch.empty()) {
      std::unique_lock<std::mutex> lk(idle_mutex_);
      if (stop_.load(std::memory_order_acquire)) return;
      idle_cv_.wait_for(lk, std::chrono::milliseconds(1));
      continue;
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_jobs_.fetch_add(batch.size(), std::memory_order_relaxed);
    for (Job& job : batch) {
      execute_job(ws, job, static_cast<int>(batch.size()));
      finished_.fetch_add(1, std::memory_order_release);
    }
    // Lock-then-notify so a drain() that just evaluated its predicate
    // cannot miss this batch's completions.
    {
      std::lock_guard<std::mutex> lk(drain_mutex_);
    }
    drain_cv_.notify_all();
  }
}

harness::DeviceSession& Server::session_for(WorkerState& ws,
                                            const JobSpec& spec) {
  const std::string key = session_key(spec);
  auto it = ws.sessions.find(key);
  if (it == ws.sessions.end()) {
    std::unique_ptr<harness::DeviceSession> sess;
    if (spec.tenant >= 0) {
      sess = std::make_unique<harness::TenantSession>(
          *spec.device, spec.toolchain, virt_mgr_->tenant(spec.tenant));
    } else {
      sess = std::make_unique<harness::DeviceSession>(*spec.device,
                                                      spec.toolchain);
    }
    it = ws.sessions.emplace(key, std::move(sess)).first;
  }
  return *it->second;
}

bool Server::breaker_admit(Job& job) {
  if (cfg_.breaker <= 0) return true;
  const std::string key =
      job.spec.device->short_name + "|" +
      (job.spec.toolchain == arch::Toolchain::Cuda ? "cuda" : "ocl");
  bool shed = false;
  std::string reason;
  {
    std::lock_guard<std::mutex> lk(breaker_mutex_);
    Breaker* b = nullptr;
    for (const auto& p : breakers_) {
      if (p->key == key) {
        b = p.get();
        break;
      }
    }
    if (b == nullptr) {
      breakers_.push_back(std::make_unique<Breaker>());
      b = breakers_.back().get();
      b->key = key;
    }
    const std::int64_t now = log::now_ns();
    switch (b->st) {
      case Breaker::St::Closed:
        break;
      case Breaker::St::Open:
        if (now < b->open_until_ns) {
          shed = true;
          reason = "circuit breaker open for " + key;
        } else {
          // Cooldown elapsed: admit this job as the single HalfOpen probe.
          b->st = Breaker::St::HalfOpen;
          b->probing = true;
          job.probe = true;
        }
        break;
      case Breaker::St::HalfOpen:
        if (b->probing) {
          shed = true;
          reason = "circuit breaker half-open (probe in flight) for " + key;
        } else {
          b->probing = true;
          job.probe = true;
        }
        break;
    }
    if (!shed) job.breaker = b;
  }
  if (shed) {
    shed_job(job, reason);
    return false;
  }
  return true;
}

void Server::breaker_note_result(const Job& job, bool success,
                                 bool device_fault) {
  if (cfg_.breaker <= 0 || job.breaker == nullptr) return;
  bool tripped = false;
  {
    std::lock_guard<std::mutex> lk(breaker_mutex_);
    Breaker& b = *job.breaker;
    if (success) {
      b.consecutive = 0;
      b.st = Breaker::St::Closed;
      b.probing = false;
    } else if (device_fault) {
      ++b.consecutive;
      if (b.st == Breaker::St::HalfOpen || b.consecutive >= cfg_.breaker) {
        b.st = Breaker::St::Open;
        b.open_until_ns =
            log::now_ns() +
            static_cast<std::int64_t>(cfg_.breaker_cooldown_ms * 1e6);
        b.probing = false;
        b.consecutive = 0;
        tripped = true;
      }
    } else if (job.probe) {
      // A probe that failed for a non-DeviceFault reason (e.g. quota)
      // releases the probe slot without deciding the breaker either way.
      b.probing = false;
    }
  }
  if (tripped) {
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    resil::counters().breaker_trips.fetch_add(1, std::memory_order_relaxed);
    if (prof::enabled()) {
      prof::recorder().record_instant("serve", "breaker_trip");
    }
    GPC_LOG(Warn) << "serve: circuit breaker tripped for "
                  << job.breaker->key << " (cooldown "
                  << cfg_.breaker_cooldown_ms << " ms)";
  }
}

void Server::execute_job(WorkerState& ws, Job& job, int batch_size) {
  // Deadline admission: an expired job is shed without touching the device.
  const double deadline_ms =
      job.spec.deadline_ms < 0 ? cfg_.deadline_ms : job.spec.deadline_ms;
  if (deadline_ms > 0 &&
      log::now_ns() - job.submit_ns >=
          static_cast<std::int64_t>(deadline_ms * 1e6)) {
    shed_job(job, "deadline (" + std::to_string(deadline_ms) +
                      " ms) expired before execution");
    return;
  }
  if (!breaker_admit(job)) return;

  // The job's private fault plan governs every instrumented site below for
  // the duration of this job (see header comment: determinism contract).
  resil::ThreadPlanScope plan_scope(job.spec.fault_plan.get());

  resil::Policy pol;
  {
    std::lock_guard<std::mutex> lk(breaker_mutex_);
    pol = policy_;
  }

  Completion c;
  c.batch = batch_size;
  bool success = false;
  bool device_fault = false;
  try {
    harness::DeviceSession& sess = session_for(ws, job.spec);
    sess.set_policy(pol);
    sess.set_allow_degraded_exec(pol.degrade);
    sess.reset_memory();
    sess.set_step_budget(
        deadline_ms > 0
            ? std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(deadline_ms *
                                                static_cast<double>(
                                                    cfg_.steps_per_ms)))
            : 0);
    const int retries_before = sess.retries();
    const int deg_before = sess.degraded_events();
    int serve_retries = 0;

    // Build through the content-addressed cache. The job's Build fault site
    // is sampled here once per attempt — BEFORE the cache lookup — so a
    // job's build-fault sequence is deterministic whether or not another
    // job already compiled the kernel (cache state is scheduling-dependent;
    // the fault stream must not be). The actual compile runs with the
    // thread plan suspended so the site is not sampled twice.
    const kernel::KernelDef& def = *job.spec.kernel;
    compiler::CompileOptions opts;
    CompiledKernelCache::KernelPtr ck;
    for (int attempt = 0;; ++attempt) {
      try {
        if (resil::armed()) {
          if (auto inj = resil::sample(resil::Site::Build, def.name)) {
            throw TransientFault(inj->detail);
          }
        }
        ck = cache_.get_or_compile(def, job.spec.toolchain,
                                   job.spec.device->short_name, opts,
                                   [&] {
                                     resil::ThreadPlanScope off(nullptr);
                                     return sess.compile(def, opts);
                                   },
                                   &c.cache_hit);
        break;
      } catch (const TransientFault&) {
        if (attempt >= pol.max_retries) throw;
        ++serve_retries;
        resil::counters().retries.fetch_add(1, std::memory_order_relaxed);
        resil::backoff_sleep(pol, attempt, kSaltServeBuild);
      }
    }

    // Allocate + upload buffer args. A quota/resource bounce resets this
    // job's allocations and retries once from scratch (graceful degradation
    // under gpc::virt quota pressure); a second bounce aborts the job.
    std::vector<sim::KernelArg> args;
    std::vector<std::pair<std::uint64_t, const JobArg*>> readbacks;
    for (int attempt = 0;; ++attempt) {
      try {
        args.clear();
        readbacks.clear();
        args.reserve(job.spec.args.size());
        for (const JobArg& a : job.spec.args) {
          if (!a.is_buffer) {
            args.push_back(a.scalar);
            continue;
          }
          const std::uint64_t addr = sess.alloc(a.bytes.size());
          sess.write(addr, a.bytes.data(), a.bytes.size());
          args.push_back(sim::KernelArg::ptr(addr));
          if (a.readback) readbacks.emplace_back(addr, &a);
        }
        break;
      } catch (const OutOfResources&) {
        if (attempt >= 1) throw;
        sess.reset_memory();
      }
    }

    // Launch through the full PR 5 retry / split / degrade ladder.
    c.result = sess.launch(*ck, job.spec.grid, job.spec.block, args,
                           job.spec.dynamic_shared_bytes);

    c.outputs.reserve(readbacks.size());
    for (const auto& [addr, arg] : readbacks) {
      std::vector<unsigned char> out(arg->bytes.size());
      sess.read(out.data(), addr, out.size());
      c.outputs.push_back(std::move(out));
    }

    c.retries = sess.retries() - retries_before + serve_retries;
    c.degraded_events = sess.degraded_events() - deg_before;
    c.cls = c.degraded_events > 0 ? JobClass::Deg : JobClass::Ok;
    c.status = class_name(c.cls);
    success = true;
  } catch (const DeviceFault& e) {
    device_fault = true;
    c.cls = JobClass::Abt;
    c.status = class_name(c.cls);
    c.detail = e.what();
  } catch (const std::exception& e) {
    c.cls = JobClass::Abt;
    c.status = class_name(c.cls);
    c.detail = e.what();
  }

  breaker_note_result(job, success, device_fault);
  complete_job(job, std::move(c));
}

}  // namespace gpc::serve
