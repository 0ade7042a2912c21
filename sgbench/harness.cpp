#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace sg::perf {
namespace {

double reference_once_ms() {
  const std::int64_t start = now_ns();
  std::mutex mu;
  std::condition_variable cv;
  bool peer_turn = false;
  constexpr int kRoundTrips = 100;
  std::thread peer([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return peer_turn; });
      peer_turn = false;
      cv.notify_one();
    }
  });
  for (int i = 0; i < kRoundTrips; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    peer_turn = true;
    cv.notify_one();
    cv.wait(lock, [&] { return !peer_turn; });
  }
  peer.join();
  for (int i = 0; i < 10; ++i) std::thread([] {}).join();
  std::map<int, std::string> table;
  for (int i = 0; i < 2000; ++i) table.emplace(i * 7919 % 2003, std::to_string(i));
  if (table.size() != 2000) throw std::logic_error("reference routine lost entries");
  return static_cast<double>(now_ns() - start) / 1e6;
}

/// 1-based nearest rank of percentile `level` among `n` samples, robust to
/// the rounding in level / 100 * n (99.9% of 10000 is rank 9990, not 9991).
std::size_t nearest_rank(double level, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(level / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double reference_ms() {
  return median({reference_once_ms(), reference_once_ms(), reference_once_ms()});
}

double tail_level(std::size_t n) {
  for (const double level : {99.9, 99.0, 90.0, 50.0}) {
    if (n >= nearest_rank(level, n) + 10) return level;  // Ten or more samples beyond it.
  }
  return 100.0;
}

double percentile(const std::vector<double>& sorted, double level) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(level, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary summary;
  summary.n = samples.size();
  summary.p50 = percentile(samples, 50.0);
  summary.tail_level = tail_level(samples.size());
  summary.tail = percentile(samples, summary.tail_level);
  return summary;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// --- spans --------------------------------------------------------------------

int SpanLog::open(std::string name, int parent, std::string detail) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.detail = std::move(detail);
  span.start_ns = now_ns();
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index, std::string detail) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_ns = now_ns();
  if (!detail.empty()) span.detail = std::move(detail);
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"detail\": \"%s\"}}%s\n",
                 json_escape(span.name).c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 json_escape(span.detail).c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans.at(static_cast<std::size_t>(span.parent));
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_ns(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& entry = totals[spans[i].name];
    ++entry.count;
    entry.total_ns += spans[i].end_ns - spans[i].start_ns;
    entry.self_ns += self[i];
  }
  return totals;
}

// --- digest -------------------------------------------------------------------

void Digest::add(const std::string& text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // Field separator: "ab"+"c" and "a"+"bc" digest differently.
  hash_ *= 0x100000001b3ULL;
}

void Digest::add(std::uint64_t value) { add(std::to_string(value)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

// --- metrics ------------------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second] = Metric{name, unit, value};
    return;
  }
  index_.emplace(name, items_.size());
  items_.push_back(Metric{name, unit, value});
}

void Metrics::set_summary(const std::string& name, const Summary& summary,
                          const std::string& unit) {
  set(name + ".p50", summary.p50, unit);
  set(name + ".tail", summary.tail, unit);
  set(name + ".n", static_cast<double>(summary.n), "count");
}

void Metrics::merge_missing(const Metrics& other) {
  for (const Metric& metric : other.items_) {
    if (!has(metric.name)) set(metric.name, metric.value, metric.unit);
  }
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) out.append(", ");
    out.append("\"").append(json_escape(items_[i].name)).append("\": {\"value\": ");
    out.append(format_number(items_[i].value)).append(", \"unit\": \"");
    out.append(json_escape(items_[i].unit)).append("\"}");
  }
  return out.append("}");
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  if (value == std::trunc(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace sg::perf
