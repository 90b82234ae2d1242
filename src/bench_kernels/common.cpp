#include "bench_kernels/common.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "prof/prof.h"
#include "resil/fault.h"
#include "resil/policy.h"

namespace gpc::bench {

Result BenchmarkBase::attempt_in(harness::DeviceSession& session,
                                 const Options& opts,
                                 bool allow_degraded_exec,
                                 bool* resource_abort) const {
  const arch::DeviceSpec& device = session.device();
  Result r;
  r.metric = metric();
  *resource_abort = false;
  // The session may be reused across attempts (and across benchmarks, for
  // tenant sessions): degradation is judged against this attempt's baseline,
  // and timers + the device heap start clean so classification and metric
  // values match a fresh-session run.
  const int deg_baseline = session.degraded_events();
  session.set_allow_degraded_exec(allow_degraded_exec);
  session.reset_timers();
  session.reset_memory();
  try {
    prof::ScopedSpan span("bench", name());
    run_impl(session, opts, &r);
    const sim::LaunchTotals& t = session.totals();
    r.seconds = t.kernel_s;
    r.launches = t.launches;
    r.launch_seconds = t.launch_s;
    r.issue_seconds = t.issue_s;
    r.dram_seconds = t.dram_s;
    r.occupancy = t.last_occupancy;
    // A session that fell back to a split launch or degraded execution
    // completed, but not at full width/fidelity: classify DEG. Wrong
    // results without degradation are FL — quarantined from PR aggregates
    // (Result::ok() is false) rather than poisoning them.
    const bool degraded = session.degraded_events() > deg_baseline;
    r.status = degraded ? "DEG" : (r.correct ? "OK" : "FL");
    if (!r.correct) {
      r.value = 0;
      if (!degraded) {
        resil::counters().quarantined.fetch_add(1, std::memory_order_relaxed);
        if (prof::enabled()) {
          prof::recorder().record_instant("resil", "quarantine:" + name());
        }
      }
    }
  } catch (const OutOfResources& e) {
    GPC_LOG(Info) << name() << " on " << device.short_name << ": ABT — "
                  << e.what();
    r.status = "ABT";
    r.value = 0;
    r.correct = false;
    *resource_abort = true;
  } catch (const DeviceFault& e) {
    // A kernel that faults mid-run aborts the benchmark the way a real
    // launch failure would — Table VI's "ABT", not a crash of the harness.
    GPC_LOG(Info) << name() << " on " << device.short_name
                  << ": ABT (device fault) — " << e.what();
    r.status = "ABT";
    r.value = 0;
    r.correct = false;
  } catch (const TransientFault& e) {
    // A transient host-side fault that survived its retry budget: the run
    // is over, but it still ends classified.
    GPC_LOG(Info) << name() << " on " << device.short_name
                  << ": ABT (transient fault) — " << e.what();
    r.status = "ABT";
    r.value = 0;
    r.correct = false;
  }
  return r;
}

Result BenchmarkBase::run(const arch::DeviceSpec& device, arch::Toolchain tc,
                          const Options& opts) const {
  harness::DeviceSession session(device, tc);
  return run_in_session(session, opts);
}

Result BenchmarkBase::run_in_session(harness::DeviceSession& session,
                                     const Options& opts) const {
  bool resource_abort = false;
  Result r = attempt_in(session, opts, /*allow_degraded_exec=*/false,
                        &resource_abort);
  if (r.status != "ABT" || !resource_abort || !session.policy().degrade) {
    return r;
  }

  // Graceful degradation: first try to fit by shrinking the work group
  // (benchmarks that honour opts.workgroup may simply fit at lower width),
  // then allow degraded execution as the last resort — kernels that
  // hard-code their group shape (FFT's 512-point plan, RdxS's warp scan)
  // can only complete that way.
  for (const int wg : {128, 64, 32}) {
    if (opts.workgroup != 0 && wg >= opts.workgroup) continue;
    Options shrunk = opts;
    shrunk.workgroup = wg;
    bool ra = false;
    Result rs = attempt_in(session, shrunk, false, &ra);
    if (rs.status != "ABT") {
      GPC_LOG(Info) << name() << " on " << session.device().short_name
                    << ": DEG — completed at work-group size " << wg;
      rs.status = "DEG";
      return rs;
    }
  }
  bool ra = false;
  Result rd = attempt_in(session, opts, /*allow_degraded_exec=*/true, &ra);
  if (rd.status != "ABT") {
    rd.status = "DEG";
    return rd;
  }
  return r;
}

bool nearly_equal(std::span<const float> got, std::span<const float> want,
                  float rtol, float atol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float diff = std::fabs(got[i] - want[i]);
    const float bound = atol + rtol * std::fabs(want[i]);
    if (!(diff <= bound)) {
      GPC_LOG(Debug) << "mismatch at " << i << ": got " << got[i] << " want "
                     << want[i];
      return false;
    }
  }
  return true;
}

int scaled_dim(int base, double scale, int multiple) {
  const int raw = static_cast<int>(base * std::sqrt(scale));
  const int snapped = std::max(multiple, raw / multiple * multiple);
  return snapped;
}

}  // namespace gpc::bench
