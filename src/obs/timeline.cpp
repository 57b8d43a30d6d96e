#include "obs/timeline.hpp"

// The flight recorder is fed by the simulator thread and tailed by the
// telemetry server thread; sample/event storage and the ring-drop counter
// mutate only under mu_ (clip-analyze L1 enforces the write side).
// clip-lint: guards(mu_: samples_, events_, dropped_)

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace clip::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Step-function value of a sorted point deque at `t_s` (NaN before the
/// first sample). std::upper_bound over the deque keeps queries O(log n).
double value_at_points(const std::deque<TimelinePoint>& pts, double t_s) {
  auto it = std::upper_bound(
      pts.begin(), pts.end(), t_s,
      [](double t, const TimelinePoint& p) { return t < p.t_s; });
  if (it == pts.begin()) return kNaN;
  return std::prev(it)->value;
}

}  // namespace

namespace {

/// The historical format_exact: %.*g at every precision until strtod
/// round-trips. Kept as the correctness fallback (and for non-finite
/// values); the fast path below must render byte-identically.
std::string format_exact_slow(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string format_exact(double v) {
  // One std::to_chars pass (scientific = shortest round-trip mantissa D and
  // decimal exponent E), then a hand-rendered %g at the minimal precision -
  // what the historical try-every-precision loop produced, without its up to
  // 17 snprintf+strtod round-trips. This is the journal/timeline hot path:
  // every snapshot serializes dozens of doubles through here. The
  // from_chars check at the end guards byte-compatibility (tests pin it
  // across a randomized sweep); any miss falls back to the loop.
  if (!std::isfinite(v)) return format_exact_slow(v);
  char sci[40];
  const auto r =
      std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific);
  *r.ptr = '\0';  // to_chars does not terminate; strtol below needs it
  char digits[20] = {'0'};
  int precision = 0;
  int exponent = 0;
  const char* p = sci;
  const bool negative = *p == '-';
  if (negative) ++p;
  for (; p != r.ptr && *p != 'e'; ++p)
    if (*p != '.') digits[precision++] = *p;
  if (p != r.ptr) exponent = static_cast<int>(std::strtol(p + 1, nullptr, 10));

  char buf[40];
  char* o = buf;
  if (negative) *o++ = '-';
  if (exponent < -4 || exponent >= precision) {
    *o++ = digits[0];
    if (precision > 1) {
      *o++ = '.';
      for (int i = 1; i < precision; ++i) *o++ = digits[i];
    }
    *o++ = 'e';
    *o++ = exponent < 0 ? '-' : '+';
    const int e = exponent < 0 ? -exponent : exponent;
    if (e >= 100) *o++ = static_cast<char>('0' + e / 100);
    *o++ = static_cast<char>('0' + e / 10 % 10);
    *o++ = static_cast<char>('0' + e % 10);
  } else if (exponent >= precision - 1) {
    for (int i = 0; i < precision; ++i) *o++ = digits[i];
    for (int i = precision - 1; i < exponent; ++i) *o++ = '0';
  } else if (exponent >= 0) {
    for (int i = 0; i <= exponent; ++i) *o++ = digits[i];
    *o++ = '.';
    for (int i = exponent + 1; i < precision; ++i) *o++ = digits[i];
  } else {
    *o++ = '0';
    *o++ = '.';
    for (int i = -1; i > exponent; --i) *o++ = '0';
    for (int i = 0; i < precision; ++i) *o++ = digits[i];
  }
  *o = '\0';
  // Verify with from_chars, not strtod: both parse correctly rounded, but
  // from_chars skips the locale machinery (this check runs per double).
  double back = 0.0;
  const auto pr = std::from_chars(buf, o, back);
  if (pr.ec == std::errc() && pr.ptr == o && back == v)
    return std::string(buf, o);
  return format_exact_slow(v);
}

Timeline::Timeline(TimelineOptions options) : options_(options) {}

void Timeline::record(std::string_view series, double t_s, double value) {
  CLIP_REQUIRE(!series.empty(), "timeline series name must not be empty");
  CLIP_REQUIRE(std::isfinite(t_s), "timeline timestamp must be finite");
  std::lock_guard lock(mu_);
  auto it = samples_.find(series);
  if (it == samples_.end())
    it = samples_.emplace(std::string(series), SampleSeries{}).first;
  auto& pts = it->second.points;
  CLIP_REQUIRE(pts.empty() || t_s >= pts.back().t_s,
               "timeline series '" + it->first +
                   "' timestamps must be non-decreasing");
  if (options_.ring_capacity > 0 && pts.size() >= options_.ring_capacity) {
    pts.pop_front();
    ++dropped_;
  }
  pts.push_back(TimelinePoint{t_s, value});
}

void Timeline::event(std::string_view series, double t_s,
                     std::string_view label) {
  CLIP_REQUIRE(!series.empty(), "timeline series name must not be empty");
  CLIP_REQUIRE(std::isfinite(t_s), "timeline timestamp must be finite");
  std::lock_guard lock(mu_);
  auto it = events_.find(series);
  if (it == events_.end())
    it = events_.emplace(std::string(series), EventSeries{}).first;
  auto& entries = it->second.entries;
  CLIP_REQUIRE(entries.empty() || t_s >= entries.back().t_s,
               "timeline event series '" + it->first +
                   "' timestamps must be non-decreasing");
  if (options_.ring_capacity > 0 &&
      entries.size() >= options_.ring_capacity) {
    entries.pop_front();
    ++dropped_;
  }
  entries.push_back(TimelineEvent{t_s, std::string(label)});
}

std::vector<std::string> Timeline::series_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(samples_.size() + events_.size());
  for (const auto& [name, _] : samples_) names.push_back(name);
  for (const auto& [name, _] : events_)
    if (samples_.find(name) == samples_.end()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<TimelinePoint> Timeline::samples(std::string_view series) const {
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return {};
  return {it->second.points.begin(), it->second.points.end()};
}

std::vector<TimelineEvent> Timeline::events(std::string_view series) const {
  std::lock_guard lock(mu_);
  const auto it = events_.find(series);
  if (it == events_.end()) return {};
  return {it->second.entries.begin(), it->second.entries.end()};
}

std::size_t Timeline::total_samples() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [_, s] : samples_) n += s.points.size();
  return n;
}

std::uint64_t Timeline::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

SeriesSummary Timeline::summary(std::string_view series) const {
  std::lock_guard lock(mu_);
  SeriesSummary s;
  const auto it = samples_.find(series);
  if (it == samples_.end() || it->second.points.empty()) return s;
  const auto& pts = it->second.points;
  s.count = pts.size();
  s.min = s.max = pts.front().value;
  double sum = 0.0;
  for (const auto& p : pts) {
    s.min = std::min(s.min, p.value);
    s.max = std::max(s.max, p.value);
    sum += p.value;
  }
  s.mean = sum / static_cast<double>(pts.size());
  s.first_t_s = pts.front().t_s;
  s.last_t_s = pts.back().t_s;
  return s;
}

double Timeline::value_at(std::string_view series, double t_s) const {
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return kNaN;
  return value_at_points(it->second.points, t_s);
}

std::vector<TimelinePoint> Timeline::resample(std::string_view series,
                                              double t0, double t1,
                                              std::size_t points) const {
  CLIP_REQUIRE(t1 >= t0, "resample needs t1 >= t0");
  CLIP_REQUIRE(points >= 1, "resample needs at least one point");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  std::vector<TimelinePoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t =
        points == 1 ? t0
                    : t0 + (t1 - t0) * static_cast<double>(i) /
                               static_cast<double>(points - 1);
    const double v = it == samples_.end()
                         ? kNaN
                         : value_at_points(it->second.points, t);
    out.push_back(TimelinePoint{t, v});
  }
  return out;
}

double Timeline::integral(std::string_view series, double t0,
                          double t1) const {
  CLIP_REQUIRE(t1 >= t0, "integral needs t1 >= t0");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return 0.0;
  const auto& pts = it->second.points;
  double acc = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double lo = std::max(pts[i].t_s, t0);
    const double hi =
        std::min(i + 1 < pts.size() ? pts[i + 1].t_s : t1, t1);
    if (hi > lo) acc += pts[i].value * (hi - lo);
  }
  return acc;
}

double Timeline::time_above(std::string_view series, double threshold,
                            double t0, double t1) const {
  CLIP_REQUIRE(t1 >= t0, "time_above needs t1 >= t0");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return 0.0;
  const auto& pts = it->second.points;
  double acc = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!(pts[i].value > threshold)) continue;
    const double lo = std::max(pts[i].t_s, t0);
    const double hi =
        std::min(i + 1 < pts.size() ? pts[i + 1].t_s : t1, t1);
    if (hi > lo) acc += hi - lo;
  }
  return acc;
}

void Timeline::write_csv(const std::filesystem::path& path) const {
  clip::write_csv(path, to_csv_document());
}

std::string Timeline::to_csv_string() const {
  return render_csv(to_csv_document());
}

CsvDocument Timeline::to_csv_document() const {
  std::lock_guard lock(mu_);
  CsvDocument doc;
  doc.header = {"kind", "series", "t_s", "value", "label"};
  for (const auto& [name, s] : samples_)
    for (const auto& p : s.points)
      doc.rows.push_back(
          {"sample", name, format_exact(p.t_s), format_exact(p.value), ""});
  for (const auto& [name, e] : events_)
    for (const auto& ev : e.entries)
      doc.rows.push_back(
          {"event", name, format_exact(ev.t_s), "", ev.label});
  return doc;
}

void Timeline::write_jsonl(const std::filesystem::path& path) const {
  std::lock_guard lock(mu_);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  CLIP_REQUIRE(out.good(), "cannot open " + path.string());
  for (const auto& [name, s] : samples_)
    for (const auto& p : s.points)
      out << "{\"kind\":\"sample\",\"series\":\"" << json_escape(name)
          << "\",\"t_s\":" << format_exact(p.t_s)
          << ",\"value\":" << format_exact(p.value) << "}\n";
  for (const auto& [name, e] : events_)
    for (const auto& ev : e.entries)
      out << "{\"kind\":\"event\",\"series\":\"" << json_escape(name)
          << "\",\"t_s\":" << format_exact(ev.t_s) << ",\"label\":\""
          << json_escape(ev.label) << "\"}\n";
  CLIP_REQUIRE(out.good(), "write failed: " + path.string());
}

void Timeline::load_csv(const std::filesystem::path& path) {
  load_csv_document(read_csv(path), path.string());
}

void Timeline::load_csv_string(const std::string& text,
                               const std::string& context) {
  load_csv_document(parse_csv(text, context), context);
}

void Timeline::load_csv_document(const CsvDocument& doc,
                                 const std::string& context) {
  CLIP_REQUIRE(doc.header ==
                   std::vector<std::string>(
                       {"kind", "series", "t_s", "value", "label"}),
               "not a timeline CSV: " + context);
  for (const auto& row : doc.rows) {
    const std::string& kind = row[0];
    const double t_s = parse_double(row[2], "timeline CSV t_s");
    if (kind == "sample") {
      record(row[1], t_s, parse_double(row[3], "timeline CSV value"));
    } else if (kind == "event") {
      event(row[1], t_s, row[4]);
    } else {
      CLIP_REQUIRE(false, "timeline CSV: unknown kind '" + kind + "'");
    }
  }
}

void Timeline::clear() {
  std::lock_guard lock(mu_);
  samples_.clear();
  events_.clear();
  dropped_ = 0;
}

}  // namespace clip::obs
