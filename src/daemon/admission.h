// Admission control and per-tenant rate limiting for mmlptd.
//
// The daemon owns one fleet-wide RateLimiter (inside FleetScheduler); on
// top of it each tenant gets a second token bucket so one greedy client
// cannot starve the rest of the shared probe budget. AdmissionController
// also caps concurrent jobs — fleet-wide and per tenant — and refuses
// (rather than queues) work beyond those caps: the client sees a
// kRejected JobStatus immediately and can back off, which keeps the
// daemon's memory bounded without a hidden unbounded queue.
//
// Counters (admitted/rejected/active, plus per-tenant limiter grants)
// feed the ServerStatus frame so operators can watch enforcement from a
// plain `mmlpt_client --status` call.
#ifndef MMLPT_DAEMON_ADMISSION_H
#define MMLPT_DAEMON_ADMISSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "orchestrator/rate_limiter.h"

namespace mmlpt {
class JsonWriter;
}

namespace mmlpt::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace mmlpt::obs

namespace mmlpt::daemon {

/// Caps enforced by the AdmissionController. Zero / negative values mean
/// "unlimited" for the job caps and "no tenant throttle" for the rate.
struct AdmissionLimits {
  int max_jobs_total = 8;       ///< concurrent jobs across all tenants
  int max_jobs_per_tenant = 2;  ///< concurrent jobs per tenant id
  double tenant_pps = 0.0;      ///< per-tenant probe rate (0 = unlimited)
  int tenant_burst = 64;        ///< per-tenant token-bucket burst
};

/// Outcome of an admission attempt. On success `limiter` is the tenant's
/// token bucket (nullptr when tenant throttling is disabled) and the
/// caller must balance the admit with release(tenant).
struct AdmissionTicket {
  bool admitted = false;
  std::string reason;  ///< set when refused, machine-readable-ish
  orchestrator::RateLimiter* limiter = nullptr;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionLimits limits);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Try to admit one job for `tenant`. Never blocks.
  [[nodiscard]] AdmissionTicket try_admit(const std::string& tenant);

  /// Balance a successful try_admit once the job finishes (however it
  /// finishes — completed, canceled, or failed).
  void release(const std::string& tenant);

  [[nodiscard]] int jobs_active() const;
  [[nodiscard]] std::uint64_t jobs_admitted() const;
  [[nodiscard]] std::uint64_t jobs_rejected() const;

  /// Serialise the whole admission state as a JSON object (limits,
  /// totals, per-tenant counters including limiter grants) into a
  /// caller-positioned JsonWriter (the writer must be where a value is
  /// legal — e.g. right after a key).
  void write_status(JsonWriter& w) const;

  /// Register admission counters (admitted/rejected totals, active
  /// gauge) in `registry` and instrument every tenant limiter — existing
  /// and future — with a tenant-labeled scope. Pre-instrumentation
  /// totals are mirrored into the registry so the two views agree.
  void instrument(obs::MetricsRegistry& registry);

 private:
  struct TenantRecord {
    int active = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    /// Lazily created, then persistent for the tenant's lifetime so the
    /// bucket level survives between jobs (a burst of back-to-back jobs
    /// from one tenant shares one budget).
    std::unique_ptr<orchestrator::RateLimiter> limiter;
  };

  AdmissionLimits limits_;
  mutable Mutex mutex_;
  /// Ordered so status JSON is stable. Lock order: mutex_ may be held
  /// while taking a tenant limiter's internal mutex (write_status reads
  /// granted()); never the reverse.
  std::map<std::string, TenantRecord> tenants_ MMLPT_GUARDED_BY(mutex_);
  int active_total_ MMLPT_GUARDED_BY(mutex_) = 0;
  std::uint64_t admitted_total_ MMLPT_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_total_ MMLPT_GUARDED_BY(mutex_) = 0;

  /// Null until instrument(); the mutex above guards these too.
  obs::MetricsRegistry* registry_ MMLPT_GUARDED_BY(mutex_) = nullptr;
  obs::Counter* admitted_counter_ MMLPT_GUARDED_BY(mutex_) = nullptr;
  obs::Counter* rejected_counter_ MMLPT_GUARDED_BY(mutex_) = nullptr;
  obs::Gauge* active_gauge_ MMLPT_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_ADMISSION_H
