#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util/trace.h"

namespace perfbench {

std::uint64_t now_ns() { return bst::util::TraceClock::now_ns(); }

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t req) : log_(log) {
  if (!log_.recording_) return;
  const int parent = log_.open_.empty() ? -1 : log_.open_.back();
  index_ = log_.add(name, req, parent, now_ns(), 0);
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].t1 = now_ns();
  log_.open_.pop_back();
}

int SpanLog::add(const std::string& name, std::uint64_t req, int parent, std::uint64_t t0,
                 std::uint64_t t1) {
  spans_.push_back(Span{name, req, parent, t0, t1});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::durations(const std::string& name, std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name) out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-9);
  }
  return out;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur0 = 0, cur1 = 0;
    bool have = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, s.t0, s.t1);
      b = std::clamp(b, s.t0, s.t1);
      if (have && a <= cur1) {
        cur1 = std::max(cur1, b);
        continue;
      }
      if (have) covered += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      have = true;
    }
    if (have) covered += cur1 - cur0;
    out[s.name] += static_cast<double>(s.t1 - s.t0 - covered) * 1e-9;
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t t0 = s.t0 >= base ? s.t0 - base : 0;
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
      << ",\"ts\":" << static_cast<double>(t0) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) * 1e-3 << ",\"args\":{\"req\":" << s.req
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
