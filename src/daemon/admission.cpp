#include "daemon/admission.h"

#include "common/json.h"
#include "obs/metrics.h"

namespace mmlpt::daemon {

AdmissionController::AdmissionController(AdmissionLimits limits)
    : limits_(limits) {}

AdmissionTicket AdmissionController::try_admit(const std::string& tenant) {
  MutexLock lock(mutex_);
  TenantRecord& record = tenants_[tenant];
  AdmissionTicket ticket;
  if (limits_.max_jobs_total > 0 && active_total_ >= limits_.max_jobs_total) {
    ticket.reason = "daemon job limit reached (max_jobs_total=" +
                    std::to_string(limits_.max_jobs_total) + ")";
  } else if (limits_.max_jobs_per_tenant > 0 &&
             record.active >= limits_.max_jobs_per_tenant) {
    ticket.reason = "tenant job limit reached (max_jobs_per_tenant=" +
                    std::to_string(limits_.max_jobs_per_tenant) + ")";
  } else {
    ticket.admitted = true;
  }
  if (!ticket.admitted) {
    ++record.rejected;
    ++rejected_total_;
    if (rejected_counter_ != nullptr) rejected_counter_->add();
    return ticket;
  }
  ++record.active;
  ++record.admitted;
  ++active_total_;
  ++admitted_total_;
  if (admitted_counter_ != nullptr) admitted_counter_->add();
  if (active_gauge_ != nullptr) active_gauge_->add(1);
  if (limits_.tenant_pps > 0.0 && !record.limiter) {
    record.limiter = std::make_unique<orchestrator::RateLimiter>(
        limits_.tenant_pps, limits_.tenant_burst);
    if (registry_ != nullptr) {
      record.limiter->instrument(*registry_, "tenant:" + tenant);
    }
  }
  ticket.limiter = record.limiter.get();
  return ticket;
}

void AdmissionController::release(const std::string& tenant) {
  MutexLock lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.active <= 0) return;
  --it->second.active;
  --active_total_;
  if (active_gauge_ != nullptr) active_gauge_->add(-1);
}

void AdmissionController::instrument(obs::MetricsRegistry& registry) {
  MutexLock lock(mutex_);
  registry_ = &registry;
  admitted_counter_ =
      registry.counter("mmlpt_admission_jobs_admitted_total",
                       "Jobs admitted by the daemon's admission control");
  rejected_counter_ =
      registry.counter("mmlpt_admission_jobs_rejected_total",
                       "Jobs refused by job caps (fleet-wide or per-tenant)");
  active_gauge_ = registry.gauge("mmlpt_admission_jobs_active",
                                 "Jobs currently running in the daemon");
  // Mirror history accrued before instrumentation so registry and
  // write_status() agree from the first scrape.
  if (admitted_total_ > 0) admitted_counter_->add(admitted_total_);
  if (rejected_total_ > 0) rejected_counter_->add(rejected_total_);
  active_gauge_->set(active_total_);
  for (auto& [name, record] : tenants_) {
    if (record.limiter) {
      record.limiter->instrument(registry, "tenant:" + name);
    }
  }
}

int AdmissionController::jobs_active() const {
  MutexLock lock(mutex_);
  return active_total_;
}

std::uint64_t AdmissionController::jobs_admitted() const {
  MutexLock lock(mutex_);
  return admitted_total_;
}

std::uint64_t AdmissionController::jobs_rejected() const {
  MutexLock lock(mutex_);
  return rejected_total_;
}

void AdmissionController::write_status(JsonWriter& w) const {
  MutexLock lock(mutex_);
  w.begin_object();
  w.key("jobs_active");
  w.value(static_cast<std::int64_t>(active_total_));
  w.key("jobs_admitted");
  w.value(admitted_total_);
  w.key("jobs_rejected");
  w.value(rejected_total_);
  w.key("limits");
  w.begin_object();
  w.key("max_jobs_total");
  w.value(static_cast<std::int64_t>(limits_.max_jobs_total));
  w.key("max_jobs_per_tenant");
  w.value(static_cast<std::int64_t>(limits_.max_jobs_per_tenant));
  w.key("tenant_pps");
  w.value(limits_.tenant_pps);
  w.key("tenant_burst");
  w.value(static_cast<std::int64_t>(limits_.tenant_burst));
  w.end_object();
  w.key("tenants");
  w.begin_array();
  for (const auto& [name, record] : tenants_) {
    w.begin_object();
    w.key("tenant");
    w.value(name);
    w.key("active");
    w.value(static_cast<std::int64_t>(record.active));
    w.key("admitted");
    w.value(record.admitted);
    w.key("rejected");
    w.value(record.rejected);
    w.key("tokens_granted");
    w.value(record.limiter ? record.limiter->granted() : std::uint64_t{0});
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace mmlpt::daemon
