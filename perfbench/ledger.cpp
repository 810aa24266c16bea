#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_generation{1};
std::atomic<std::uint64_t> next_span_id{1};

struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot thread_slot;
thread_local Ledger::Scope* innermost = nullptr;

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorld: return "topology.world";
    case SpanKind::kRouteGen: return "topology.next_route";
    case SpanKind::kTask: return "orchestrator.task";
    case SpanKind::kTrace: return "core.trace";
    case SpanKind::kLiteRerun: return "core.mda_lite_rerun";
    case SpanKind::kOnResult: return "orchestrator.on_result";
    case SpanKind::kJson: return "core.json";
    case SpanKind::kLine: return "orchestrator.destination_line";
    case SpanKind::kEmit: return "orchestrator.sink_emit";
    case SpanKind::kCheck: return "bench.check";
  }
  return "unknown";
}

std::int64_t self_time(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>>
                           children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // end of the union measured so far
  for (auto [lo, hi] : children) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += hi - lo;
    reach = hi;
  }
  return (end - start) - covered;
}

Ledger::Ledger()
    : generation_(next_generation.fetch_add(1, std::memory_order_relaxed)) {}

Ledger::ThreadBuffer& Ledger::buffer() {
  if (thread_slot.generation != generation_) {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard lock(mutex_);
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    thread_slot = {generation_, owned.get()};
    buffers_.push_back(std::move(owned));
  }
  return *static_cast<ThreadBuffer*>(thread_slot.buffer);
}

Ledger::Scope::Scope(Ledger* ledger, SpanKind kind, std::uint64_t request)
    : ledger_(ledger) {
  if (ledger_ == nullptr) return;
  outer_ = innermost;
  innermost = this;
  span_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = outer_ != nullptr ? outer_->span_.id : 0;
  span_.request = request;
  span_.kind = kind;
  span_.start = now_ns();
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  span_.end = now_ns();
  innermost = outer_;
  auto& buffer = ledger_->buffer();
  span_.thread = buffer.thread;
  buffer.spans.push_back(span_);
}

void Ledger::leaf(LeafKind kind, std::int64_t ns, std::uint64_t items) {
  auto& totals = buffer().leaves[static_cast<std::size_t>(kind)];
  totals.ns += ns;
  ++totals.calls;
  totals.items += items;
  if (innermost != nullptr) innermost->span_.leaf_ns += ns;
}

std::vector<Span> Ledger::spans() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::array<LeafTotals, kLeafKinds> Ledger::leaf_totals() const {
  std::lock_guard lock(mutex_);
  std::array<LeafTotals, kLeafKinds> sum{};
  for (const auto& buffer : buffers_) {
    for (std::size_t k = 0; k < kLeafKinds; ++k) {
      sum[k].ns += buffer->leaves[k].ns;
      sum[k].calls += buffer->leaves[k].calls;
      sum[k].items += buffer->leaves[k].items;
    }
  }
  return sum;
}

void Ledger::write_spans(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& span : spans()) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\""
        << span_name(span.kind) << "\",\"thread\":" << span.thread
        << ",\"start_ns\":" << span.start << ",\"end_ns\":" << span.end
        << ",\"leaf_ns\":" << span.leaf_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

Percentile tail_percentile(std::vector<double> samples) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = [n](double p) {  // nearest rank, 1-based
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  };
  result.percentile = 50.0;
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n - rank(p) >= 10) {
      result.percentile = p;
      break;
    }
  }
  result.value = samples[rank(result.percentile) - 1];
  return result;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace perfbench
