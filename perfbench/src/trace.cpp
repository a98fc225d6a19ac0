#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

uint32_t Tracer::begin(const std::string& name, uint64_t trace_id, uint32_t parent) {
  if (!enabled_) return 0;
  const double t0 = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.trace_id = trace_id;
  s.parent = parent;
  s.t0 = t0;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(uint32_t id) {
  if (!enabled_ || id == 0) return;
  const double t1 = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].t1 = t1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds(size_t skip) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<const Span*>> children(all.size() + 1);
  for (const Span& s : all) {
    if (s.parent != 0 && s.parent <= all.size()) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (size_t i = skip; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.t1 < s.t0) continue;  // never closed
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (const Span* c : children[s.id]) {
      if (c->t1 < c->t0) continue;
      const double a = std::max(s.t0, c->t0), b = std::min(s.t1, c->t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[s.name] += (s.t1 - s.t0) - covered;
  }
  return self;
}

double Tracer::record_cost_seconds() {
  Tracer t(true);
  constexpr int kReps = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) t.end(t.begin("calibrate", static_cast<uint64_t>(i)));
  return seconds_between(t0, Clock::now()) / kReps;
}

void Tracer::write_jsonl(const std::string& path, const std::string& header_line) const {
  std::ofstream out(path);
  out << header_line << '\n';
  char buf[256];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"trace\":%llu,\"id\":%u,\"parent\":%u,\"t0\":%.9f,"
                  "\"t1\":%.9f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.trace_id), s.id, s.parent,
                  s.t0, s.t1);
    out << buf;
  }
}

std::map<std::string, double> self_shares(const std::map<std::string, double>& self_s) {
  double total = 0.0;
  for (const auto& [name, s] : self_s) total += s;
  std::map<std::string, double> shares;
  for (const auto& [name, s] : self_s) shares[name] = total > 0.0 ? s / total : 0.0;
  return shares;
}

}  // namespace perfbench
