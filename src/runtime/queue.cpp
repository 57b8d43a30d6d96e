#include "runtime/queue.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

#include "obs/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

// The event loop's journaled state: every mutation of these fields must
// reach the journal on some intra-file path, or a crash between the
// mutation and the next record makes recovery diverge. clip-analyze's J1
// rule enforces the pairing function-by-function.
// clip-lint: journaled(state_, attempts_, eligible_s_, node_busy_, enforcement_pending_, enforcements_, retry_wakeups_, pending_claws_, running_, mode_, effective_budget_)

namespace clip::runtime {

namespace {

/// Simulated-seconds wait times: 0.125 s … ~2000 s.
const obs::HistogramSpec& wait_s_spec() {
  static const obs::HistogramSpec spec =
      obs::HistogramSpec::exponential(0.125, 2.0, 14);
  return spec;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate_options(const QueueOptions& options) {
  CLIP_REQUIRE(options.cluster_budget.value() > 0.0,
               "cluster_budget must be positive (got " +
                   format_double(options.cluster_budget.value(), 3) + " W)");
  CLIP_REQUIRE(options.min_node_power_w > 0.0,
               "min_node_power_w must be positive (got " +
                   format_double(options.min_node_power_w, 3) + " W)");
  CLIP_REQUIRE(
      options.min_node_power_w <= options.cluster_budget.value(),
      "min_node_power_w (" + format_double(options.min_node_power_w, 3) +
          " W) exceeds cluster_budget (" +
          format_double(options.cluster_budget.value(), 3) + " W)");
  options.retry.validate();
  options.guard.validate();
  options.redist.validate();
}

/// Budget watchdog; the plausibility ceiling defaults to what the machine
/// can physically draw (a healthy node never exceeds it, a spiking meter
/// usually will).
fault::BudgetGuard make_guard(const QueueOptions& options,
                              sim::SimExecutor& executor) {
  fault::BudgetGuardOptions guard_opts = options.guard;
  if (guard_opts.max_plausible_node_w >= 1e9)
    guard_opts.max_plausible_node_w = executor.spec().max_node_w() * 1.5;
  return fault::BudgetGuard(guard_opts, options.cluster_budget);
}

// --- fault kinds -------------------------------------------------------------
// What each plan event announces, overloaded on its type: the span's `kind`
// arg (also the timeline label's head) and the label's tail. Events that
// name a node carry it as a span arg and in the label.

/// The plan a loop without a fault injector walks.
const fault::FaultPlan kNoFaults{};

std::string fault_kind(const fault::NodeCrash&) { return "crash"; }
std::string fault_kind(const fault::NodeDegrade&) { return "degrade"; }
std::string fault_kind(const fault::MeterFault& f) {
  return std::string("meter-") + to_string(f.kind);
}
std::string fault_kind(const fault::CapViolation&) { return "cap-violation"; }
std::string fault_kind(const fault::MeterBlackout&) { return "meter-blackout"; }
std::string fault_kind(const fault::BudgetCut&) { return "budget-cut"; }

template <class Event>
  requires requires(const Event& e) { e.node; }
std::string fault_detail(const Event& e) {
  return "node=" + std::to_string(e.node);
}
std::string fault_detail(const fault::MeterBlackout& b) {
  return "for " + format_double(b.duration_s, 1) + "s";
}
std::string fault_detail(const fault::BudgetCut& c) {
  return "to " + format_double(c.factor, 2) + "x for " +
         format_double(c.duration_s, 1) + "s";
}

/// Crashes and degrades are permanent; every other kind is a window.
template <class Event>
bool fault_active_at(const Event& e, double t) {
  if constexpr (requires { e.duration_s; })
    return e.at_s <= t && t < e.at_s + e.duration_s;
  else
    return e.at_s <= t;
}

// --- snapshot codec ----------------------------------------------------------
// A snapshot is `key=value` tokens separated by single spaces; values join
// fields with ',' (list entries), ':' (record fields), '/' and ';' (ids, cap
// overrides), characters obs::format_exact never emits, and doubles render
// through it so a restore parses the exact bits. Tokens, order, separators
// and decode bounds are declared once, in QueueEventLoop::visit_state;
// SnapshotWriter and SnapshotReader are the two visitors that walk it.

std::string fx(double v) { return obs::format_exact(v); }

/// An integer or enum field the decoder confines to [lo, hi): node ids, job
/// indices, modes. The encoder ignores the bound.
template <class T>
struct Bounded {
  T& value;
  long long lo;
  long long hi;
};

template <class T>
Bounded<T> bounded(T& value, long long lo, long long hi) {
  return {value, lo, hi};
}

/// How a list renders when empty, and which lengths it may decode to.
enum class ListForm {
  kVariable,  ///< any length; empty is an empty value
  kDashed,    ///< any length; empty is '-'
  kFixed,     ///< exactly the container's current length (one per job)
};

class SnapshotWriter {
 public:
  static constexpr bool kDecoding = false;

  explicit SnapshotWriter(std::size_t reserve) { out_.reserve(reserve); }
  [[nodiscard]] std::string take() { return std::move(out_); }

  SnapshotWriter& key(std::string_view name,
                      std::optional<std::size_t> index = std::nullopt) {
    if (!out_.empty()) out_ += ' ';
    out_ += name;
    if (index.has_value()) out_ += std::to_string(*index);
    out_ += '=';
    return *this;
  }

  void field(double v) { out_ += obs::format_exact(v); }
  void field(Watts w) { field(w.value()); }
  template <class T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void field(T v) {
    out_ += std::to_string(static_cast<long long>(v));
  }
  template <class T>
  void field(const Bounded<T>& b) {
    field(b.value);
  }
  template <class First, class... Rest>
  void fields(char sep, const First& first, const Rest&... rest) {
    field(first);
    ((out_ += sep, field(rest)), ...);
  }

  /// Each element through `entry` (default: one field), joined by `sep`.
  template <class Vec, class Entry>
  void list(Vec& xs, char sep, ListForm form, Entry&& entry) {
    if (form == ListForm::kDashed && xs.empty()) out_ += '-';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) out_ += sep;
      entry(xs[i]);
    }
  }
  template <class Vec>
  void list(Vec& xs, char sep, ListForm form = ListForm::kVariable) {
    list(xs, sep, form, [this](const auto& x) { field(x); });
  }
  /// One digit per element, no separator (bitstrings, job states).
  template <class Vec>
  void digits(const Vec& xs, int /*base*/) {
    for (const auto x : xs)
      out_ += static_cast<char>('0' + static_cast<int>(x));
  }
  /// A container's length; the decoder re-sizes it, to at most `max`.
  template <class Vec>
  void length(const Vec& xs, std::size_t /*max*/) {
    field(xs.size());
  }
  /// The rest of the token verbatim (an escaped embedded document).
  void text(const std::string& s) { out_ += s; }
  /// A token that exists only with an attachment: '-' when `attachment` is
  /// null, else the value `body(*attachment)` visits.
  template <class T, class Body>
  void section(T* attachment, const char* /*what*/, Body&& body) {
    if (attachment != nullptr)
      body(*attachment);
    else
      out_ += '-';
  }

 private:
  std::string out_;
};

/// Walks the payload once, in declared order. A missing, extra or
/// out-of-order key, a wrong field count, a malformed or non-finite number
/// or an index outside its bound throws PreconditionError naming the token.
class SnapshotReader {
 public:
  static constexpr bool kDecoding = true;

  explicit SnapshotReader(std::string_view payload) : in_(payload) {}

  SnapshotReader& key(std::string_view name,
                      std::optional<std::size_t> index = std::nullopt) {
    std::string want(name);
    if (index.has_value()) want += std::to_string(*index);
    if (pos_ > 0) {
      CLIP_REQUIRE(value_ends(), context_ + " has extra fields or data");
      if (pos_ < in_.size()) ++pos_;  // the separating space
    }
    const std::size_t eq = std::min(in_.find_first_of("= ", pos_), in_.size());
    const std::string_view got = in_.substr(pos_, eq - pos_);
    CLIP_REQUIRE(eq < in_.size() && in_[eq] == '=' && got == want,
                 got.empty() ? "snapshot is missing token '" + want + "'"
                             : "snapshot token '" + std::string(got) +
                                   "' where '" + want + "' was expected");
    pos_ = eq + 1;
    context_ = "snapshot token '" + want + "'";
    return *this;
  }
  /// After the last token: nothing may follow it.
  void finish() const {
    CLIP_REQUIRE(pos_ == in_.size(), context_ + " is followed by extra data");
  }

  void field(double& v) { v = finite(next()); }
  void field(Watts& w) { w = Watts(finite(next())); }
  template <std::integral T>
  void field(T& v) {
    constexpr long long kMax = std::min<unsigned long long>(
        std::numeric_limits<T>::max(), std::numeric_limits<long long>::max());
    v = static_cast<T>(
        parse_int(next(), context_, std::numeric_limits<T>::min(), kMax));
  }
  template <class T>
  void field(Bounded<T> b) {
    b.value = static_cast<T>(parse_int(next(), context_, b.lo, b.hi - 1));
  }
  template <class First, class... Rest>
  void fields(char sep, First&& first, Rest&&... rest) {
    field(first);
    ((expect(sep), field(rest)), ...);
  }

  template <class Vec, class Entry>
  void list(Vec& xs, char sep, ListForm form, Entry&& entry) {
    const std::size_t want = xs.size();
    xs.clear();
    if (form == ListForm::kDashed && dash_here())
      ++pos_;
    else if (form == ListForm::kDashed || !value_ends())
      do entry(xs.emplace_back());
      while (accept(sep));
    CLIP_REQUIRE(form != ListForm::kFixed || xs.size() == want,
                 context_ + " has " + std::to_string(xs.size()) +
                     " entries, expected " + std::to_string(want));
  }
  template <class Vec>
  void list(Vec& xs, char sep, ListForm form = ListForm::kVariable) {
    list(xs, sep, form, [this](auto& x) { field(x); });
  }
  template <class Vec>
  void digits(Vec& xs, int base) {
    const std::string_view f = next();
    const auto digit = [&](char c) { return c >= '0' && c < '0' + base; };
    CLIP_REQUIRE(
        f.size() == xs.size() && std::all_of(f.begin(), f.end(), digit),
        context_ + ": expected " + std::to_string(xs.size()) +
            " digits below " + std::to_string(base) + ", got '" +
            std::string(f) + "'");
    for (std::size_t i = 0; i < f.size(); ++i)
      xs[i] = static_cast<typename Vec::value_type>(f[i] - '0');
  }
  template <class Vec>
  void length(Vec& xs, std::size_t max) {
    std::size_t n = 0;
    field(bounded(n, 0, static_cast<long long>(max) + 1));
    xs.clear();
    xs.resize(n);
  }
  void text(std::string& s) {
    const std::size_t end = std::min(in_.find(' ', pos_), in_.size());
    s = in_.substr(pos_, end - pos_);
    pos_ = end;
  }
  template <class T, class Body>
  void section(T* attachment, const char* what, Body&& body) {
    const bool dash = dash_here();
    CLIP_REQUIRE(dash == (attachment == nullptr),
                 context_ + ": '-' must mark exactly a detached " + what);
    if (dash)
      ++pos_;
    else
      body(*attachment);
  }

 private:
  [[nodiscard]] bool ends_at(std::size_t at) const {
    return at == in_.size() || in_[at] == ' ';
  }
  [[nodiscard]] bool value_ends() const { return ends_at(pos_); }
  [[nodiscard]] bool dash_here() const {
    return pos_ < in_.size() && in_[pos_] == '-' && ends_at(pos_ + 1);
  }
  bool accept(char c) {
    if (pos_ >= in_.size() || in_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void expect(char sep) {
    CLIP_REQUIRE(accept(sep), context_ + " has too few fields");
  }
  /// A snapshot holds only finite instants and quantities; strtod's
  /// inf/nan spellings would hang the tick catch-up loop or poison the
  /// guard's accounting.
  [[nodiscard]] double finite(std::string_view f) const {
    const double v = parse_double(f, context_);
    CLIP_REQUIRE(std::isfinite(v), context_ + ": non-finite number '" +
                                       std::string(f) + "'");
    return v;
  }
  /// The next field: up to the next separator or the end of the token.
  std::string_view next() {
    const std::size_t end =
        std::min(in_.find_first_of(" ,:/;", pos_), in_.size());
    const std::string_view f = in_.substr(pos_, end - pos_);
    pos_ = end;
    return f;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string context_;  ///< "snapshot token '<key>'", for error messages
};

}  // namespace

const char* to_string(DegradedMode mode) {
  switch (mode) {
    case DegradedMode::kNormal:
      return "NORMAL";
    case DegradedMode::kMeterBlackout:
      return "METER_BLACKOUT";
    case DegradedMode::kBudgetBrownout:
      return "BUDGET_BROWNOUT";
  }
  return "?";
}

PowerAwareJobQueue::PowerAwareJobQueue(sim::SimExecutor& executor,
                                       core::ClipScheduler& scheduler,
                                       QueueOptions options)
    : executor_(&executor), scheduler_(&scheduler), options_(options) {
  validate_options(options);
}

QueueReport PowerAwareJobQueue::run(
    const std::vector<workloads::WorkloadSignature>& jobs) {
  std::vector<QueueJob> wrapped;
  wrapped.reserve(jobs.size());
  for (const auto& j : jobs) wrapped.push_back(QueueJob{j, 0});
  return run(wrapped);
}

QueueReport PowerAwareJobQueue::run(const std::vector<QueueJob>& jobs) {
  QueueEventLoop loop(*executor_, *scheduler_, options_, jobs);
  loop.set_observer(obs_);
  loop.set_fault_injector(injector_);
  loop.set_timeline(timeline_);
  loop.set_journal(journal_);
  return loop.run();
}

QueueEventLoop::QueueEventLoop(sim::SimExecutor& executor,
                               core::ClipScheduler& scheduler,
                               QueueOptions options, std::vector<QueueJob> jobs)
    : executor_(&executor),
      scheduler_(&scheduler),
      options_(options),
      jobs_(std::move(jobs)),
      total_nodes_(executor.spec().nodes),
      total_budget_(options.cluster_budget.value()),
      guard_(make_guard(options, executor)),
      detector_(options.redist),
      redistributor_(options.redist),
      effective_budget_(options.cluster_budget.value()) {
  validate_options(options_);
  CLIP_REQUIRE(!jobs_.empty(), "queue needs at least one job");
  for (const auto& job : jobs_)
    CLIP_REQUIRE(job.requested_nodes >= 0 &&
                     job.requested_nodes <= total_nodes_,
                 "job '" + job.app.name + "' requested_nodes (" +
                     std::to_string(job.requested_nodes) +
                     ") exceeds the cluster's " +
                     std::to_string(total_nodes_) + " nodes");
  report_.jobs.resize(jobs_.size());
  // clip-lint: allow(J1) constructor pre-init: the "begin"+"admit" records written by run_fresh() re-derive this exact state, so nothing existed to lose yet
  state_.assign(jobs_.size(), State::kPending);
  attempts_.assign(jobs_.size(), 0);
  eligible_s_.assign(jobs_.size(), 0.0);
  index_pending();
  node_alive_.assign(static_cast<std::size_t>(total_nodes_), true);
  node_busy_.assign(static_cast<std::size_t>(total_nodes_), false);
  enforcement_pending_.assign(static_cast<std::size_t>(total_nodes_), false);
  redist_on_ = options_.redist.enabled;
  next_tick_s_ = options_.redist.period_s;
}

QueueEventLoop::~QueueEventLoop() = default;

obs::TelemetryServer* QueueEventLoop::telemetry_server() const {
  return telemetry_.get();
}

std::string QueueEventLoop::trace_suffix(std::size_t j) const {
  return j < traces_.size() ? " trace=" + traces_[j].hex() : std::string();
}

void QueueEventLoop::publish_status(bool run_active) {
  if (telemetry_ == nullptr) return;
  obs::StatusSnapshot snap;
  snap.now_s = now_;
  const auto done = std::count(state_.begin(), state_.end(), State::kDone);
  snap.queue_depth = static_cast<int>(pending_.size());
  snap.running_jobs = static_cast<int>(running_.size());
  snap.free_watts = free_power();
  snap.mode = to_string(mode_);
  snap.journal_seq =
      journal_ != nullptr ? static_cast<std::uint64_t>(journal_->size()) : 0;
  snap.jobs_completed = static_cast<int>(done);
  snap.jobs_failed = report_.jobs_failed;
  snap.run_active = run_active;
  telemetry_->publish(snap);
}

int QueueEventLoop::free_nodes() const {
  int free = 0;
  for (int n = 0; n < total_nodes_; ++n)
    if (node_alive_[static_cast<std::size_t>(n)] &&
        !node_busy_[static_cast<std::size_t>(n)])
      ++free;
  return free;
}

double QueueEventLoop::free_power() const {
  double used = 0.0;
  for (const auto& r : running_) used += r.power_w;
  return effective_budget_ - used;
}

std::vector<int> QueueEventLoop::active_node_ids() const {
  std::vector<int> ids;
  for (const auto& r : running_)
    ids.insert(ids.end(), r.node_ids.begin(), r.node_ids.end());
  return ids;
}

double QueueEventLoop::true_cluster_power(double t) const {
  double watts = 0.0;
  for (const auto& r : running_) watts += r.true_power_w;
  return watts + injector_->cap_excess_w(active_node_ids(), t);
}

template <class Self, class Visit>
void QueueEventLoop::visit_fault_kinds(Self& self, Visit&& visit) {
  const fault::FaultPlan& p = self.plan_ != nullptr ? *self.plan_ : kNoFaults;
  visit("seen.crash", "fault.crashes", p.crashes, self.crash_seen_);
  visit("seen.degrade", "fault.degrades", p.degrades, self.degrade_seen_);
  visit("seen.meter", "fault.meter_faults", p.meter_faults, self.meter_seen_);
  visit("seen.capviol", "fault.cap_violations", p.cap_violations,
        self.capviol_seen_);
  visit("seen.blackout", "fault.blackouts", p.meter_blackouts,
        self.blackout_seen_);
  visit("seen.cut", "fault.budget_cuts", p.budget_cuts, self.cut_seen_);
}

// Fault windows active at `t` for the flight recorder's `fault.active`
// series (claw-backs truncate the cap violations in place).
int QueueEventLoop::faults_active_at(double t) const {
  int active = 0;
  visit_fault_kinds(*this, [&](std::string_view, std::string_view,
                               const auto& events, const auto&) {
    for (const auto& e : events)
      if (fault_active_at(e, t)) ++active;
  });
  return active;
}

// Every pending job starts with need 0 (always visited); cannot_fit()
// raises a pinned job's need once CLIP is seen to know its app.
void QueueEventLoop::index_pending() {
  pending_ = PendingIndex(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    if (state_[j] == State::kPending) pending_.set(j, 0);
}

// A pinned job wider than the free nodes cannot start. Once CLIP knows its
// app, the decision try_start would ask for is a pure knowledge-DB hit that
// "a predefined decomposition cannot shrink" throws away, so the pass skips
// it, and from then on the index hides it from every pass with fewer free
// nodes than it is pinned to (the knowledge DB only grows during a run, so a
// known app stays known). A first-sight app still goes through try_start:
// its characterization (profiler draws, knowledge-DB insert) must happen at
// the same instant.
bool QueueEventLoop::cannot_fit(std::size_t j, int nodes_avail) {
  const int pinned = jobs_[j].requested_nodes;
  if (pinned <= nodes_avail || !scheduler_->knows(jobs_[j].app)) return false;
  pending_.set(j, pinned);
  return true;
}

bool QueueEventLoop::try_start(std::size_t j, int nodes_avail,
                               double watts_avail) {
  obs::ScopedSpan span(action_obs(), "queue.try_start", "runtime");
  span.arg("app", jobs_[j].app.name);
  // active() gate: hex-formatting the ids costs two string allocations, and
  // try_start runs for every job a pass consults CLIP for — an inert span
  // must not pay that (bench/obs_overhead prices the tracing-on duty cycle).
  if (span.active() && j < traces_.size()) {
    span.arg("trace_id", traces_[j].hex());
    span.arg("span_id", traces_[j].span_hex("queue"));
  }
  span.arg("free_nodes", nodes_avail);
  span.arg("free_watts", watts_avail);

  // Shape the job as if the free watts were all its own...
  const core::ScheduleDecision ideal =
      scheduler_->schedule(jobs_[j].app, Watts(watts_avail));
  // ...then constrain to the free nodes (or the job's own MPI launch
  // line) with a proportional power slice.
  const int nodes_wanted =
      jobs_[j].requested_nodes > 0 ? jobs_[j].requested_nodes
                                   : ideal.cluster.nodes;
  if (nodes_wanted > nodes_avail && jobs_[j].requested_nodes > 0)
    return false;  // a predefined decomposition cannot shrink
  const int nodes_used = std::min(nodes_wanted, nodes_avail);
  const double slice =
      watts_avail * nodes_used / std::max(ideal.cluster.nodes, nodes_used);
  if (slice < options_.min_node_power_w * nodes_used) return false;

  const core::ScheduleDecision constrained =
      nodes_used == ideal.cluster.nodes
          ? ideal
          : scheduler_->schedule_constrained(jobs_[j].app, Watts(slice),
                                             nodes_used);
  const sim::Measurement m =
      executor_->run_exact(jobs_[j].app, constrained.cluster);
  CLIP_ENSURE(m.avg_power.value() <= slice * 1.01 + 1.0,
              "job exceeded its power slice");

  Running r;
  r.job_index = j;
  r.start_s = now_;
  const double duration =
      m.time.value() + constrained.profiling_cost.value();
  r.end_s = now_ + duration;
  r.node_ids.reserve(static_cast<std::size_t>(nodes_used));
  for (int n = 0; n < total_nodes_ &&
                  static_cast<int>(r.node_ids.size()) < nodes_used;
       ++n)
    if (node_alive_[static_cast<std::size_t>(n)] &&
        !node_busy_[static_cast<std::size_t>(n)])
      r.node_ids.push_back(n);
  // Reserve the job's full slice, not its measured draw: the RAPL caps
  // guarantee the slice is never exceeded, and only reserving the caps
  // keeps the cluster-wide bound airtight under transients.
  r.power_w = slice;
  r.true_power_w = m.avg_power.value();
  r.energy_j = m.energy.value();
  r.config = constrained.cluster;
  r.prof_s = constrained.profiling_cost.value();
  r.full_energy_j = m.energy.value();
  r.frac_done = 0.0;
  r.change_s = now_;
  r.ff_remaining = duration;
  if (injector_ != nullptr) {
    // Degrades stretch the run; a held node's crash aborts it.
    const fault::RunResolution res =
        injector_->resolve(now_, duration, r.node_ids);
    r.end_s = res.end_s;
    r.crashed = res.crashed;
    r.crashed_node = res.crashed_node;
  }
  for (int n : r.node_ids) node_busy_[static_cast<std::size_t>(n)] = true;

  auto& out = report_.jobs[j];
  out.app = jobs_[j].app.name;
  out.parameters = jobs_[j].app.parameters;
  out.submit_s = 0.0;
  out.start_s = now_;
  out.end_s = r.end_s;
  out.nodes = nodes_used;
  out.budget_w = slice;
  out.power_w = m.avg_power.value();
  out.attempts = ++attempts_[j];
  out.completed = !r.crashed;
  out.crashed_node = -1;
  if (timeline_ != nullptr) {
    timeline_->event("job", now_, "start " + out.app + " nodes=" +
                                      std::to_string(nodes_used) +
                                      trace_suffix(j));
    const double per_node_cap = slice / nodes_used;
    const double per_node_power = m.avg_power.value() / nodes_used;
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".cap_w", now_, per_node_cap);
      timeline_->record(prefix + ".power_w", now_, per_node_power);
    }
  }
  // Optimistic accounting at start, exactly as the fault-free queue always
  // did (same FP operations in the same order, so an empty plan reproduces
  // the report bit-for-bit); a crash abort adjusts the energy term. For a
  // crashed run r.end_s is already the abort instant, so the node-seconds
  // term needs no adjustment, and a degraded run's stretch is billed here.
  report_.total_energy_j += m.energy.value();
  report_.node_seconds_used += nodes_used * (r.end_s - now_);
  running_.push_back(std::move(r));
  state_[j] = State::kRunning;
  pending_.erase(j);
  obs::count(action_obs(), "queue.jobs_started");
  obs::observe(action_obs(), "queue.job_wait_s", wait_s_spec(), out.wait_s());
  if (journal_ != nullptr) {
    const Running& rr = running_.back();
    SnapshotWriter ids(4 * rr.node_ids.size());
    ids.list(rr.node_ids, '/');  // the snapshot's `ids.k` encoding
    jlog("launch", "job=" + std::to_string(j) + " attempt=" +
                       std::to_string(attempts_[j]) + " nodes=" +
                       ids.take() + " slice=" +
                       fx(rr.power_w) + " end=" + fx(rr.end_s) +
                       " crashed=" + (rr.crashed ? "1" : "0") +
                       trace_suffix(j));
  }
  return true;
}

void QueueEventLoop::start_eligible() {
  // BUDGET_BROWNOUT pauses admission: the launch pass is skipped until the
  // cut window ends (the gauges below keep tracking the paused queue).
  if (!admission_paused_) {
    // Host-time cost of one admission pass, recorded only while the live
    // telemetry plane is up: queue metrics stay a deterministic function
    // of the workload otherwise (same-seed runs fingerprint identically).
    // Metrics-only — never the timeline, whose contents must stay a
    // function of simulated time. Feeds the p99 SLO rule in obs/alerts.hpp.
    obs::ScopedTimer timer(telemetry_ != nullptr ? action_obs() : nullptr,
                           "queue.decision_latency_us");
    // With backfill every job the free nodes cannot hold is skipped
    // unseen; strict FCFS must see the head, whatever it needs.
    int nodes_avail = free_nodes();
    double watts_avail = free_power();
    const auto reach = [&] {
      return options_.backfill ? nodes_avail : PendingIndex::kAnyNeed;
    };
    for (std::size_t j = pending_.first(0, reach()); j != PendingIndex::npos;
         j = pending_.first(j + 1, reach())) {
      if (eligible_s_[j] > now_) continue;  // still backing off after a crash
      // Exhausted: no later job can start before a completion or claw-back.
      if (nodes_avail < 1 || watts_avail < options_.min_node_power_w) break;
      if (!cannot_fit(j, nodes_avail) &&
          try_start(j, nodes_avail, watts_avail)) {
        nodes_avail = free_nodes();
        watts_avail = free_power();
      } else if (!options_.backfill) {
        break;  // strict FCFS: head blocks
      }
    }
  }
  const std::size_t waiting = pending_.size();
  obs::gauge_set(action_obs(), "queue.depth", static_cast<double>(waiting));
  obs::gauge_set(action_obs(), "queue.running",
                 static_cast<double>(running_.size()));
  if (timeline_ != nullptr) {
    timeline_->record("queue.depth", now_, static_cast<double>(waiting));
    timeline_->record("queue.running", now_,
                      static_cast<double>(running_.size()));
    timeline_->record("budget.free_w", now_, free_power());
  }
  // Steady-state publishing is throttled: /status is a monitoring view, not
  // a ledger, so a few-steps-stale snapshot is fine and the O(jobs) state
  // scan plus the server mutex stay off the per-decision path
  // (bench/obs_overhead prices exactly this duty cycle). Run start, mode
  // transitions and finalize() still publish unconditionally.
  if (telemetry_ != nullptr && (publish_tick_++ & 0xF) == 0)
    publish_status(true);
}

// Announce fault events whose time has arrived: counters/spans once per
// event, crashes also retire the node from the pool.
void QueueEventLoop::apply_fault_events() {
  bool fired = false;
  visit_fault_kinds(*this, [&](std::string_view, std::string_view counter,
                               const auto& events, std::vector<bool>& seen) {
    for (std::size_t i = 0; i < seen.size(); ++i) {
      const auto& e = events[i];
      if (seen[i] || e.at_s > now_) continue;
      seen[i] = true;
      fired = true;
      const std::string kind = fault_kind(e);
      obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
      span.arg("kind", kind);
      if constexpr (requires { e.node; }) span.arg("node", e.node);
      obs::count(action_obs(), "fault.injected");
      obs::count(action_obs(), counter);
      if (timeline_ != nullptr)
        timeline_->event("fault", now_, kind + " " + fault_detail(e));
      if constexpr (std::is_same_v<std::decay_t<decltype(e)>,
                                   fault::NodeCrash>) {
        if (node_alive_[static_cast<std::size_t>(e.node)]) {
          node_alive_[static_cast<std::size_t>(e.node)] = false;
          report_.crashed_nodes.push_back(e.node);
        }
      }
    }
  });
  if (timeline_ != nullptr && fired)
    timeline_->record("fault.active", now_,
                      static_cast<double>(faults_active_at(now_)));
}

// Claw back a violated cap on `node` (re-coordination took effect).
void QueueEventLoop::claw_back(int node) {
  const int truncated = injector_->truncate_cap_violations(node, now_);
  if (truncated == 0) return;  // window already over
  report_.caps_reprogrammed += truncated;
  obs::ScopedSpan span(action_obs(), "budget.reprogram", "fault");
  span.arg("node", node);
  obs::count(action_obs(), "budget.caps_reprogrammed",
             static_cast<std::uint64_t>(truncated));
  if (timeline_ != nullptr) {
    timeline_->event("fault", now_, "claw-back node=" + std::to_string(node));
    timeline_->record("fault.active", now_,
                      static_cast<double>(faults_active_at(now_)));
  }
  if (journal_ != nullptr)
    jlog("guard-claw", "node=" + std::to_string(node) + " windows=" +
                           std::to_string(truncated) + " t=" + fx(now_));
}

// The guard's sampling pass: read every active node's meter (corrupted by
// the injector, filtered for plausibility), detect cluster overshoot, and
// schedule claw-backs with the actuation latency. METER_BLACKOUT freezes
// the pass entirely: there is nothing trustworthy to read.
void QueueEventLoop::guard_sample() {
  if (meters_dark_) return;
  if (!guard_.options().enabled || running_.empty()) return;
  double observed = 0.0;
  for (const auto& r : running_) {
    const double per_node_truth =
        r.true_power_w / static_cast<double>(r.node_ids.size());
    const double per_node_expected =
        r.power_w / static_cast<double>(r.node_ids.size());
    for (int n : r.node_ids) {
      const double truth =
          per_node_truth + injector_->cap_excess_w({n}, now_);
      if (timeline_ != nullptr)
        timeline_->record("node" + std::to_string(n) + ".power_w", now_,
                          truth);
      observed += guard_.filter_reading(
          injector_->observed_node_power(n, now_, truth),
          per_node_expected);
    }
  }
  if (!guard_.overshoot(observed)) return;
  obs::count(action_obs(), "budget.overshoot_events");
  for (int n : injector_->violating_nodes(active_node_ids(), now_)) {
    if (enforcement_pending_[static_cast<std::size_t>(n)]) continue;
    if (guard_.options().reaction_s <= 0.0) {
      claw_back(n);
    } else {
      enforcement_pending_[static_cast<std::size_t>(n)] = true;
      enforcements_.push_back({now_ + guard_.options().reaction_s, n});
      if (journal_ != nullptr)
        jlog("enforce-scheduled", "node=" + std::to_string(n) + " at=" +
                                      fx(enforcements_.back().at_s));
    }
  }
}

// Work fraction job `r` has completed by `t` (fault-free-equivalent work
// over total), chained through the re-base points.
double QueueEventLoop::frac_at(const Running& r, double t) const {
  if (r.ff_remaining <= 0.0) return 1.0;
  const double done = injector_ != nullptr
                          ? injector_->work_done_s(r.change_s, t, r.node_ids)
                          : t - r.change_s;
  const double seg = std::clamp(done / r.ff_remaining, 0.0, 1.0);
  return r.frac_done + seg * (1.0 - r.frac_done);
}

// Where job `r` would finish if its remaining work ran at measurement
// `m1`'s pace (resolved against faults from `now` onward).
double QueueEventLoop::projected_end(const Running& r,
                                     const sim::Measurement& m1) const {
  const double frac = frac_at(r, now_);
  const double ff_rem =
      std::max((1.0 - frac) * (m1.time.value() + r.prof_s), 0.0);
  if (injector_ == nullptr) return now_ + ff_rem;
  return injector_->resolve(now_, ff_rem, r.node_ids).end_s;
}

// Re-base job `r` onto a new configuration/slice at `now`: convert its
// elapsed time into work progress, re-resolve the remainder against the
// fault plan (which may newly hit — or dodge — a crash), and adjust the
// optimistic energy / node-seconds bills by the delta on the unfinished
// fraction.
void QueueEventLoop::rebase_running(Running& r, const sim::ClusterConfig& cfg,
                                    const sim::Measurement& m1,
                                    double new_slice) {
  const double frac = frac_at(r, now_);
  const double ff_rem =
      std::max((1.0 - frac) * (m1.time.value() + r.prof_s), 0.0);
  double new_end = now_ + ff_rem;
  bool crashed = false;
  int crashed_node = -1;
  if (injector_ != nullptr) {
    const fault::RunResolution res =
        injector_->resolve(now_, ff_rem, r.node_ids);
    new_end = res.end_s;
    crashed = res.crashed;
    crashed_node = res.crashed_node;
  }
  const double energy_delta =
      (1.0 - frac) * (m1.energy.value() - r.full_energy_j);
  report_.total_energy_j += energy_delta;
  r.energy_j += energy_delta;
  r.full_energy_j = m1.energy.value();
  report_.node_seconds_used +=
      static_cast<double>(r.node_ids.size()) * (new_end - r.end_s);
  r.config = cfg;
  r.power_w = new_slice;
  r.true_power_w = m1.avg_power.value();
  r.end_s = new_end;
  r.crashed = crashed;
  r.crashed_node = crashed_node;
  r.frac_done = frac;
  r.change_s = now_;
  r.ff_remaining = ff_rem;
  auto& out = report_.jobs[r.job_index];
  out.end_s = new_end;
  out.budget_w = new_slice;
  out.power_w = r.true_power_w;
  out.completed = !crashed;
  if (timeline_ != nullptr) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".cap_w", now_, new_slice / n_nodes);
      timeline_->record(prefix + ".power_w", now_, r.true_power_w / n_nodes);
    }
  }
}

// Actuate one claw-back whose reaction latency elapsed. If the placement
// it targeted is gone (completed, or crash-aborted — the race the attempt
// tag catches), its watts are already back in the free pool and the claw
// dissolves without effect.
void QueueEventLoop::apply_claw(const PendingClaw& c) {
  Running* r = nullptr;
  for (auto& cand : running_)
    if (cand.job_index == c.job) r = &cand;
  if (r == nullptr || attempts_[c.job] != c.attempt) {
    if (journal_ != nullptr)
      jlog("claw-dissolve", "job=" + std::to_string(c.job) + " reason=gone");
    return;
  }
  const int n_nodes = static_cast<int>(r->node_ids.size());
  const double floor_w =
      std::max(options_.min_node_power_w * n_nodes,
               r->true_power_w + options_.redist.headroom_frac * r->power_w);
  const double claw = std::min(c.watts, r->power_w - floor_w);
  if (claw <= 0.0) {
    // A re-grant since the decision ate the slack.
    if (journal_ != nullptr)
      jlog("claw-dissolve", "job=" + std::to_string(c.job) + " reason=eaten");
    return;
  }
  r->power_w -= claw;
  report_.jobs[r->job_index].budget_w = r->power_w;
  ++report_.redist_claw_backs;
  report_.redist_reclaimed_w += claw;
  obs::count(action_obs(), "redist.claw_backs");
  if (timeline_ != nullptr) {
    timeline_->event("redist", now_,
                     "claw " + report_.jobs[r->job_index].app +
                         " w=" + format_double(claw, 1));
    const double per_node_cap = r->power_w / n_nodes;
    for (int n : r->node_ids)
      timeline_->record("node" + std::to_string(n) + ".cap_w", now_,
                        per_node_cap);
  }
  if (journal_ != nullptr)
    jlog("claw-actuate", "job=" + std::to_string(c.job) + " w=" + fx(claw));
}

// The redistribution tick: sample, size claw-backs, and hill-climb
// memory-phase jobs one PKG→DRAM step.
void QueueEventLoop::redist_tick() {
  obs::count(action_obs(), "redist.ticks");
  for (const auto& r : running_) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    const double per_node_truth = r.true_power_w / n_nodes;
    const double per_node_expected = r.power_w / n_nodes;
    for (int n : r.node_ids) {
      double truth = per_node_truth;
      double observed = truth;
      if (injector_ != nullptr) {
        truth += injector_->cap_excess_w({n}, now_);
        observed = injector_->observed_node_power(n, now_, truth);
      }
      detector_.observe(n, now_,
                        guard_.filter_reading(observed, per_node_expected));
    }
  }
  double slack_total = 0.0;
  for (const auto& r : running_) {
    if (r.crashed) continue;  // its watts come back at the abort instant
    bool claw_pending = false;
    for (const auto& c : pending_claws_)
      claw_pending = claw_pending || c.job == r.job_index;
    if (claw_pending) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double cap_per_node = r.power_w / n_nodes;
    double slack = 0.0;
    for (int n : r.node_ids) slack += detector_.node_slack_w(n, cap_per_node);
    slack_total += slack;
    const double floor_w =
        std::max(options_.min_node_power_w * n_nodes,
                 r.true_power_w + options_.redist.headroom_frac * r.power_w);
    const double claw = redistributor_.claw_w(r.power_w, slack, floor_w);
    if (claw <= 0.0) continue;
    pending_claws_.push_back({now_ + options_.redist.reaction_s, r.job_index,
                              attempts_[r.job_index], claw});
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "claw-scheduled " + report_.jobs[r.job_index].app +
                           " w=" + format_double(claw, 1));
    if (journal_ != nullptr)
      jlog("claw-scheduled", "job=" + std::to_string(r.job_index) + " at=" +
                                 fx(pending_claws_.back().at_s) +
                                 " w=" + fx(claw));
  }
  if (timeline_ != nullptr)
    timeline_->record("redist.slack_w", now_, slack_total);
  if (journal_ != nullptr)
    jlog("tick", "t=" + fx(now_) + " slack=" + fx(slack_total));
  if (!options_.redist.subsystem_split) return;
  for (auto& r : running_) {
    if (r.crashed) continue;
    const PhaseSignal sig = SlackDetector::phase_at(
        jobs_[r.job_index].app, r.start_s, r.end_s, now_);
    if (!sig.memory_bound) continue;
    const sim::ClusterConfig shifted = sim::shift_pkg_to_dram(
        r.config, Watts(options_.redist.shift_step_w), Watts(1.0));
    if (shifted.node.cpu_cap.value() == r.config.node.cpu_cap.value() &&
        shifted.node.mem_level == r.config.node.mem_level)
      continue;  // already fully shifted
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, shifted);
    if (m1.avg_power.value() > r.power_w * 1.01 + 1.0)
      continue;  // must keep fitting the reserved slice
    const double gain = r.end_s - projected_end(r, m1);
    if (gain < options_.redist.min_gain_s) continue;
    rebase_running(r, shifted, m1, r.power_w);
    ++report_.redist_subsystem_shifts;
    obs::count(action_obs(), "redist.subsystem_shifts");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "shift " + report_.jobs[r.job_index].app +
                           " pkg->dram w=" +
                           format_double(options_.redist.shift_step_w, 1));
    if (journal_ != nullptr)
      jlog("shift", "job=" + std::to_string(r.job_index) + " t=" + fx(now_));
  }
}

// Re-grant the free pool to the running job whose completion improves the
// most. Queued jobs own the free watts first: while anyone is pending
// (even in crash backoff) the pool stays untouched. METER_BLACKOUT freezes
// re-grants: a grant is justified by measured slack, and there are no
// measurements.
void QueueEventLoop::try_regrant() {
  if (meters_dark_ || !pending_.empty()) return;
  const double free_w = free_power();
  if (free_w < options_.redist.min_grant_w || running_.empty()) return;
  struct Eval {
    sim::ClusterConfig cfg;
    sim::Measurement m;
    double slice;
  };
  std::vector<RegrantCandidate> candidates;
  std::vector<Eval> evals;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Running& r = running_[i];
    if (r.crashed) continue;  // boosting a doomed placement buys nothing
    const double slice = r.power_w + free_w;
    const core::ScheduleDecision boosted = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(slice),
        static_cast<int>(r.node_ids.size()));
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, boosted.cluster);
    if (m1.avg_power.value() > slice * 1.01 + 1.0) continue;
    candidates.push_back({i, free_w, r.end_s - projected_end(r, m1)});
    evals.push_back({boosted.cluster, m1, slice});
  }
  const RegrantCandidate* best = redistributor_.pick(candidates);
  if (best == nullptr) return;
  Running& r = running_[best->job];
  // The guard admits the grant against the larger of the reservations and
  // the true draw: during an active cap violation the cluster is already
  // over budget, and re-granting then would widen the violation.
  double reserved = 0.0;
  for (const auto& other : running_) reserved += other.power_w;
  if (injector_ != nullptr)
    reserved = std::max(reserved, true_cluster_power(now_));
  if (!guard_.admit_regrant(reserved, best->grant_w)) {
    obs::count(action_obs(), "redist.regrants_rejected");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "regrant-rejected " + report_.jobs[r.job_index].app +
                           " w=" + format_double(best->grant_w, 1));
    if (journal_ != nullptr)
      jlog("grant-reject", "job=" + std::to_string(r.job_index) + " w=" +
                               fx(best->grant_w));
    return;
  }
  const Eval& e = evals[static_cast<std::size_t>(best - candidates.data())];
  rebase_running(r, e.cfg, e.m, e.slice);
  ++report_.redist_regrants;
  report_.redist_granted_w += best->grant_w;
  obs::count(action_obs(), "redist.regrants");
  if (timeline_ != nullptr)
    timeline_->event("redist", now_,
                     "regrant " + report_.jobs[r.job_index].app +
                         " w=" + format_double(best->grant_w, 1));
  if (journal_ != nullptr)
    jlog("grant", "job=" + std::to_string(r.job_index) + " w=" +
                      fx(best->grant_w));
}

// Process the single earliest finished run due at `now` (one per pass, so
// a simultaneous completion sees the freed resources of the previous one —
// exactly how the fault-free queue always behaved).
bool QueueEventLoop::finish_one_due() {
  auto next = running_.end();
  for (auto it = running_.begin(); it != running_.end(); ++it)
    if (it->end_s <= now_ &&
        (next == running_.end() || it->end_s < next->end_s))
      next = it;
  if (next == running_.end()) return false;
  const Running r = *next;
  running_.erase(next);
  for (int n : r.node_ids) node_busy_[static_cast<std::size_t>(n)] = false;
  const std::size_t j = r.job_index;
  if (timeline_ != nullptr)
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".power_w", now_, 0.0);
      timeline_->record(prefix + ".cap_w", now_, 0.0);
    }
  if (!r.crashed) {
    state_[j] = State::kDone;
    if (timeline_ != nullptr)
      timeline_->event("job", now_,
                       "finish " + report_.jobs[j].app + trace_suffix(j));
    if (journal_ != nullptr)
      jlog("complete", "job=" + std::to_string(j) + " t=" + fx(now_) +
                           trace_suffix(j));
    return true;
  }
  // Crash abort: replace the optimistic energy bill with the watts the
  // partial execution truly drew (nodes and watts were freed above), then
  // retry or fail.
  const double elapsed = r.end_s - r.start_s;
  report_.total_energy_j += r.true_power_w * elapsed - r.energy_j;
  auto& out = report_.jobs[j];
  out.crashed_node = r.crashed_node;
  out.completed = false;
  if (timeline_ != nullptr)
    timeline_->event("job", now_,
                     "crash " + out.app +
                         " node=" + std::to_string(r.crashed_node) +
                         trace_suffix(j));
  if (attempts_[j] >= options_.retry.max_attempts) {
    state_[j] = State::kFailed;
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    if (timeline_ != nullptr)
      timeline_->event("job", now_, "fail " + out.app + trace_suffix(j));
    if (journal_ != nullptr)
      jlog("fail", "job=" + std::to_string(j) + " t=" + fx(now_) +
                       trace_suffix(j));
    return true;
  }
  state_[j] = State::kPending;
  pending_.set(j, 0);
  eligible_s_[j] = now_ + options_.retry.backoff_s(attempts_[j]);
  retry_wakeups_.push_back(eligible_s_[j]);
  ++report_.retries;
  obs::ScopedSpan span(action_obs(), "queue.requeue", "runtime");
  span.arg("app", out.app);
  span.arg("crashed_node", r.crashed_node);
  if (span.active() && j < traces_.size()) {
    span.arg("trace_id", traces_[j].hex());
    span.arg("span_id", traces_[j].span_hex("queue"));
  }
  obs::count(action_obs(), "queue.retries");
  if (timeline_ != nullptr)
    timeline_->event("job", now_, "requeue " + out.app + trace_suffix(j));
  if (journal_ != nullptr)
    jlog("crash-requeue", "job=" + std::to_string(j) + " node=" +
                              std::to_string(r.crashed_node) +
                              " eligible=" + fx(eligible_s_[j]) +
                              trace_suffix(j));
  return true;
}

void QueueEventLoop::prepare_run() {
  CLIP_REQUIRE(!started_,
               "QueueEventLoop is single-shot: construct a fresh loop per run");
  started_ = true;
  plan_ = injector_ != nullptr ? &injector_->plan() : nullptr;
  visit_fault_kinds(*this, [](std::string_view, std::string_view,
                              const auto& events, std::vector<bool>& seen) {
    seen.assign(events.size(), false);
  });
  wakeups_ =
      injector_ != nullptr ? injector_->wakeups() : std::vector<double>{};
  wakeup_idx_ = 0;
  mode_faults_on_ = plan_ != nullptr && (!plan_->meter_blackouts.empty() ||
                                         !plan_->budget_cuts.empty());
  if (options_.trace.enabled && traces_.empty()) {
    // One draw per job in submission order: ids are a pure function of
    // (seed, job index), so a recovery constructed with the same options
    // re-mints exactly the ids the dying run journaled.
    Rng trace_rng(options_.trace.seed);
    traces_.reserve(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      traces_.push_back(obs::TraceContext::make(trace_rng));
      report_.jobs[j].trace_id = traces_[j].hex();
    }
  }
  if (options_.telemetry_port >= 0 && telemetry_ == nullptr) {
    obs::TelemetryServerOptions server_options;
    server_options.port = options_.telemetry_port;
    server_options.metrics = obs_ != nullptr ? &obs_->metrics() : nullptr;
    server_options.timeline = timeline_;
    telemetry_ = std::make_unique<obs::TelemetryServer>(server_options);
    publish_status(true);
  }
}

QueueReport QueueEventLoop::run() {
  prepare_run();
  return run_fresh();
}

QueueReport QueueEventLoop::run_fresh() {
  if (journal_ != nullptr) {
    // begin + admit ARE the genesis state: together they determine the
    // pre-init loop exactly, so no snapshot is written here. A journal cut
    // before the first periodic snapshot recovers by restarting (still
    // byte-identical — the loop is deterministic).
    jlog("begin", begin_payload());
    jlog("admit", admits_payload());
  }
  init_pass();
  main_loop();
  finalize();
  return report_;
}

QueueReport QueueEventLoop::recover(Journal& journal) {
  journal_ = &journal;
  prepare_run();
  obs::count(obs_, "journal.recoveries");
  // The journal prefix must describe this very run — a recovery against the
  // wrong jobs, options or attachments must fail loudly, not diverge. The
  // check is prefix-tolerant: a journal torn before these records exist is a
  // legitimate early death, not a mismatch.
  const auto& records = journal.records();
  if (!records.empty())
    CLIP_REQUIRE(records[0].kind == "begin" &&
                     records[0].payload == begin_payload(),
                 "journal was written by a different run configuration");
  if (records.size() > 1)
    CLIP_REQUIRE(records[1].kind == "admit" &&
                     records[1].payload == admits_payload(),
                 "journal admits do not match this job stream");
  const std::optional<std::size_t> snap = journal.last_snapshot();
  if (!snap.has_value()) {
    // The coordinator died before the first periodic snapshot: nothing to
    // restore, the run starts over and re-journals from scratch.
    journal.clear();
    return run_fresh();
  }
  restore_state(records[*snap].payload);
  replay_cursor_ = *snap + 1;
  replay_limit_ = records.size();
  replaying_ = replay_cursor_ < replay_limit_;
  records_since_snapshot_ = 0;
  rederive_running();
  if (!init_done_) init_pass();
  main_loop();
  finalize();
  return report_;
}

void QueueEventLoop::init_pass() {
  if (injector_ != nullptr) {
    while (wakeup_idx_ < wakeups_.size() && wakeups_[wakeup_idx_] <= now_)
      ++wakeup_idx_;
    apply_fault_events();  // t = 0 events precede the first placement
    if (mode_faults_on_) update_mode();
  }
  start_eligible();
  if (injector_ != nullptr) guard_sample();
  init_done_ = true;
}

void QueueEventLoop::main_loop() {
  for (;;) {
    maybe_snapshot();
    // 1. Due injector events: cap claw-backs whose latency elapsed, then
    //    newly arrived plan events (crashes must retire nodes before any
    //    start at this instant), then expired retry backoffs.
    bool acted = false;
    if (injector_ != nullptr) {
      for (auto it = enforcements_.begin(); it != enforcements_.end();) {
        if (it->at_s <= now_) {
          enforcement_pending_[static_cast<std::size_t>(it->node)] = false;
          claw_back(it->node);
          it = enforcements_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      while (wakeup_idx_ < wakeups_.size() && wakeups_[wakeup_idx_] <= now_) {
        ++wakeup_idx_;
        acted = true;
      }
      for (auto it = retry_wakeups_.begin(); it != retry_wakeups_.end();) {
        if (*it <= now_) {
          it = retry_wakeups_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      if (acted) {
        apply_fault_events();
        if (mode_faults_on_) update_mode();
      }
    }
    // 1b. Due redistribution work: claw-backs whose reaction latency
    //     elapsed, then the periodic slack-sampling tick (frozen while the
    //     meters are dark — stale samples must not drive claw-backs).
    if (redist_on_) {
      for (auto it = pending_claws_.begin(); it != pending_claws_.end();) {
        if (it->at_s <= now_) {
          apply_claw(*it);
          it = pending_claws_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      if (!running_.empty() && next_tick_s_ <= now_ && !meters_dark_) {
        redist_tick();
        acted = true;
      }
      while (next_tick_s_ <= now_) next_tick_s_ += options_.redist.period_s;
    }

    // 2. Due completions, one per pass with a start pass after each.
    if (finish_one_due()) {
      start_eligible();
      if (injector_ != nullptr) guard_sample();
      if (redist_on_) try_regrant();
      continue;
    }
    // 3. An event without a completion still frees or consumes capacity
    //    (crashed node gone, cap clawed back, retry eligible): start pass.
    if (acted) {
      start_eligible();
      if (injector_ != nullptr) guard_sample();
      if (redist_on_) try_regrant();
      continue;
    }

    // 4. Nothing due at `now`: advance to the next instant anything happens.
    //    A job backing off after a crash is pending with its eligibility
    //    instant in retry_wakeups_ until that instant passes.
    double next = kInf;
    for (const auto& r : running_) next = std::min(next, r.end_s);
    for (const double w : retry_wakeups_)
      if (w > now_) next = std::min(next, w);
    if (injector_ != nullptr && (!running_.empty() || !pending_.empty())) {
      if (wakeup_idx_ < wakeups_.size())
        next = std::min(next, wakeups_[wakeup_idx_]);
      for (const auto& e : enforcements_) next = std::min(next, e.at_s);
    }
    if (redist_on_) {
      if (!running_.empty()) next = std::min(next, next_tick_s_);
      for (const auto& c : pending_claws_) next = std::min(next, c.at_s);
    }
    if (next == kInf) break;
    if (injector_ != nullptr)
      guard_.account(next - now_, true_cluster_power(now_));
    now_ = next;
  }
}

void QueueEventLoop::finalize() {
  // Jobs still pending when nothing can ever happen again (every node dead,
  // or the budget unreachable) are failures, not hangs. Without an injector
  // this is unreachable: a lone job always fits an idle cluster.
  for (std::size_t j = pending_.first(0); j != PendingIndex::npos;
       j = pending_.first(j + 1)) {
    CLIP_ENSURE(injector_ != nullptr,
                "job never started: " + jobs_[j].app.name);
    auto& out = report_.jobs[j];
    out.app = jobs_[j].app.name;
    out.parameters = jobs_[j].app.parameters;
    out.attempts = attempts_[j];
    out.completed = false;
    state_[j] = State::kFailed;
    pending_.erase(j);
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    if (journal_ != nullptr)
      jlog("fail", "job=" + std::to_string(j) + " reason=stranded");
  }

  report_.makespan_s = 0.0;
  double turnaround = 0.0;
  for (const auto& r : report_.jobs) {
    report_.makespan_s = std::max(report_.makespan_s, r.end_s);
    turnaround += r.turnaround_s();
  }
  report_.mean_turnaround_s = turnaround / static_cast<double>(jobs_.size());
  report_.node_seconds_available = report_.makespan_s * total_nodes_;
  report_.violation_s = guard_.violation_s();
  report_.violation_ws = guard_.violation_ws();
  report_.meter_reads_rejected = guard_.rejected_reads();
  if (injector_ != nullptr) {
    obs::gauge_set(obs_, "budget.violation_s", report_.violation_s);
    obs::gauge_set(obs_, "budget.violation_ws", report_.violation_ws);
    if (report_.meter_reads_rejected > 0)
      obs::count(action_obs(), "fault.meter_reads_rejected",
                 report_.meter_reads_rejected);
  }
  report_.redist_regrants_rejected = guard_.regrants_rejected();
  if (redist_on_) {
    obs::gauge_set(obs_, "redist.reclaimed_w", report_.redist_reclaimed_w);
    obs::gauge_set(obs_, "redist.granted_w", report_.redist_granted_w);
  }
  if (timeline_ != nullptr)
    timeline_->record("budget.violation_s", report_.makespan_s,
                      report_.violation_s);
  if (journal_ != nullptr)
    jlog("end", "makespan=" + fx(report_.makespan_s) +
                    " violation_s=" + fx(report_.violation_s));
  publish_status(false);
}

// --- degraded-mode state machine (docs/robustness.md) ----------------------
// Only ever called when the plan contains blackout or budget-cut windows
// (mode_faults_on_), so every other run never touches this path.

void QueueEventLoop::update_mode() {
  const double factor = injector_->budget_cut_factor(now_);
  const bool dark = injector_->meters_blacked_out(now_);
  if (factor != applied_factor_) {
    effective_budget_ =
        factor == 1.0 ? total_budget_ : total_budget_ * factor;
    guard_.set_budget(Watts(effective_budget_));
    if (factor < applied_factor_) brownout_clawback();
    applied_factor_ = factor;
  }
  meters_dark_ = dark;
  admission_paused_ = factor < 1.0;
  const DegradedMode next_mode =
      factor < 1.0
          ? DegradedMode::kBudgetBrownout
          : (dark ? DegradedMode::kMeterBlackout : DegradedMode::kNormal);
  if (next_mode == mode_) return;
  mode_ = next_mode;
  obs::count(action_obs(), "mode.transitions");
  obs::gauge_set(action_obs(), "mode.current", static_cast<double>(mode_));
  if (timeline_ != nullptr) {
    timeline_->event("mode", now_, to_string(mode_));
    timeline_->record("mode.current", now_, static_cast<double>(mode_));
  }
  if (journal_ != nullptr)
    jlog("mode", std::string("to=") + to_string(mode_) + " t=" + fx(now_) +
                     " factor=" + fx(factor));
  publish_status(true);
}

// Entering BUDGET_BROWNOUT: the facility cut the budget under the running
// reservations, so claw every live job back proportionally (never below the
// queue's minimum viable reservation — a residual overage then shows up
// honestly as violation-seconds against the cut budget).
void QueueEventLoop::brownout_clawback() {
  double reserved = 0.0;
  for (const auto& r : running_) reserved += r.power_w;
  if (reserved <= effective_budget_) return;
  const double ratio = effective_budget_ / reserved;
  for (auto& r : running_) {
    if (r.crashed) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double floor_w = options_.min_node_power_w * n_nodes;
    const double new_slice = std::max(r.power_w * ratio, floor_w);
    if (new_slice >= r.power_w) continue;
    const core::ScheduleDecision cut = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(new_slice), n_nodes);
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, cut.cluster);
    const double clawed = r.power_w - new_slice;
    rebase_running(r, cut.cluster, m1, new_slice);
    obs::count(action_obs(), "mode.brownout_claws");
    if (timeline_ != nullptr)
      timeline_->event("mode", now_,
                       "brownout-claw " + report_.jobs[r.job_index].app +
                           " w=" + format_double(clawed, 1));
    if (journal_ != nullptr)
      jlog("brownout-claw", "job=" + std::to_string(r.job_index) +
                                " w=" + fx(new_slice));
  }
}

// --- journaling -------------------------------------------------------------

void QueueEventLoop::jlog(std::string_view kind, std::string payload) {
  if (journal_ == nullptr) return;
  append_or_verify(kind, std::move(payload));
  ++records_since_snapshot_;
}

void QueueEventLoop::append_or_verify(std::string_view kind,
                                      std::string payload) {
  if (replay_cursor_ < replay_limit_) {
    const JournalRecord& expect = journal_->records()[replay_cursor_];
    if (expect.kind == kind && expect.payload == payload) {
      ++replay_cursor_;
      if (replay_cursor_ >= replay_limit_) replaying_ = false;
      obs::count(obs_, "journal.replayed");
      return;
    }
    // The surviving suffix diverges from re-execution — corruption the CRC
    // could not catch. Salvage: truncate it, log the gap, append fresh.
    journal_->truncate(replay_cursor_);
    replay_limit_ = replay_cursor_;
    replaying_ = false;
    obs::count(obs_, "journal.gaps");
    if (timeline_ != nullptr)
      timeline_->event("journal", now_,
                       "gap: replay diverged at seq " +
                           std::to_string(journal_->size() + 1));
  }
  journal_->append(kind, std::move(payload));
  obs::count(obs_, "journal.records");
}

void QueueEventLoop::emit_snapshot() {
  if (journal_ == nullptr) return;
  append_or_verify("snapshot", serialize_state());
  records_since_snapshot_ = 0;
  obs::count(obs_, "journal.snapshots");
}

void QueueEventLoop::maybe_snapshot() {
  if (journal_ == nullptr) return;
  if (records_since_snapshot_ < journal_->options().snapshot_every) return;
  emit_snapshot();
}

std::string QueueEventLoop::begin_payload() const {
  std::string os = "budget=" + fx(total_budget_) +
                   " nodes=" + std::to_string(total_nodes_) +
                   " jobs=" + std::to_string(jobs_.size());
  os += options_.backfill ? " backfill=1" : " backfill=0";
  os += redist_on_ ? " redist=1" : " redist=0";
  os += injector_ != nullptr ? " injector=1" : " injector=0";
  os += timeline_ != nullptr ? " timeline=1" : " timeline=0";
  // Token appended only when tracing is on: journals written before tracing
  // existed (or with it off) keep their exact bytes, while a traced journal
  // recovered with a different trace configuration fails the begin check
  // loudly instead of diverging record by record.
  if (options_.trace.enabled)
    os += " traceseed=" + std::to_string(options_.trace.seed);
  return os;
}

std::string QueueEventLoop::admits_payload() const {
  // One record for the whole job stream (rather than one per job): admits
  // are static config, and per-record cost is what the recovery bench
  // bounds. Recovery compares this payload verbatim, it never splits it.
  std::string os;
  os.reserve(40 * jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (j > 0) os += ';';
    os += "job=";
    os += std::to_string(j);
    os += " app=";
    os += journal_escape(jobs_[j].app.name);
    os += " nodes=";
    os += std::to_string(jobs_[j].requested_nodes);
  }
  return os;
}

template <class Self, class Visitor>
void QueueEventLoop::visit_state(Self& self, Visitor& v) {
  const std::size_t jobs = self.jobs_.size();
  const int nodes = self.total_nodes_;
  const auto node_id = [&](auto& n) { v.field(bounded(n, 0, nodes)); };

  v.key("init").field(self.init_done_);
  v.key("now").field(self.now_);
  v.key("mode").field(bounded(self.mode_, 0, 3));
  v.key("ebud").field(self.effective_budget_);
  v.key("factor").field(self.applied_factor_);
  v.key("dark").field(self.meters_dark_);
  v.key("pause").field(self.admission_paused_);
  v.key("st").digits(self.state_, 4);
  v.key("att").list(self.attempts_, ',', ListForm::kFixed);
  v.key("el").list(self.eligible_s_, ',', ListForm::kFixed);
  v.key("alive").digits(self.node_alive_, 2);
  v.key("busy").digits(self.node_busy_, 2);
  v.key("pend").digits(self.enforcement_pending_, 2);
  visit_fault_kinds(self, [&](std::string_view key, std::string_view,
                              const auto&, auto& seen) {
    v.key(key).digits(seen, 2);
  });
  v.key("widx").field(bounded(
      self.wakeup_idx_, 0, static_cast<long long>(self.wakeups_.size()) + 1));
  v.key("tick").field(self.next_tick_s_);
  v.key("enf").list(self.enforcements_, ',', ListForm::kVariable,
                    [&](auto& e) {
                      v.fields(':', e.at_s, bounded(e.node, 0, nodes));
                    });
  v.key("retry").list(self.retry_wakeups_, ',');
  v.key("claw").list(self.pending_claws_, ',', ListForm::kVariable,
                     [&](auto& c) {
                       v.fields(':', c.at_s, bounded(c.job, 0, jobs),
                                c.attempt, c.watts);
                     });
  v.key("run.n").length(self.running_, jobs);
  for (std::size_t k = 0; k < self.running_.size(); ++k) {
    auto& r = self.running_[k];
    v.key("run.", k).fields(
        ':', bounded(r.job_index, 0, jobs), r.start_s, r.end_s, r.power_w,
        r.true_power_w, r.energy_j, r.crashed,
        bounded(r.crashed_node, -1, nodes), r.prof_s, r.full_energy_j,
        r.frac_done, r.change_s, r.ff_remaining);
    v.key("ids.", k).list(r.node_ids, '/', ListForm::kVariable, node_id);
    auto& cfg = r.config;
    v.key("cfg.", k).fields(':', cfg.nodes, cfg.node.threads,
                            bounded(cfg.node.affinity, 0, 2),
                            bounded(cfg.node.mem_level, 0, 4),
                            cfg.node.cpu_cap, cfg.node.mem_cap);
    v.key("ovr.", k).list(cfg.cpu_cap_overrides, ';', ListForm::kDashed);
  }
  auto& rep = self.report_;
  for (std::size_t j = 0; j < jobs; ++j) {
    auto& out = rep.jobs[j];
    v.key("rep.", j).fields(':', out.submit_s, out.start_s, out.end_s,
                            out.nodes, out.budget_w, out.power_w,
                            out.attempts, out.completed,
                            bounded(out.crashed_node, -1, nodes));
  }
  v.key("acc").fields(':', rep.total_energy_j, rep.node_seconds_used);
  v.key("racc").fields(':', rep.retries, rep.jobs_failed,
                       rep.caps_reprogrammed);
  v.key("cn").list(rep.crashed_nodes, '/', ListForm::kDashed, node_id);
  v.key("racc2").fields(':', rep.redist_claw_backs, rep.redist_regrants,
                        rep.redist_subsystem_shifts, rep.redist_reclaimed_w,
                        rep.redist_granted_w);
  fault::BudgetGuard::visit_state(self.guard_, v.key("guard"));

  // Attachment state: each section is '-' when its attachment is absent.
  constexpr bool kDecoding = Visitor::kDecoding;
  v.key("vends").section(self.injector_, "injector", [&](auto& injector) {
    std::vector<double> ends;
    if constexpr (!kDecoding) ends = injector.violation_ends();
    v.list(ends, ',');
    if constexpr (kDecoding) injector.restore_violation_ends(ends);
  });
  v.key("det").section(self.redist_on_ ? &self.detector_ : nullptr,
                       "detector", [&](auto& detector) {
    struct Sample {
      int node = 0;
      double t_s = 0.0;
      double draw_w = 0.0;
    };
    std::vector<Sample> samples;
    if constexpr (!kDecoding) {
      const obs::Timeline& held = detector.samples();
      for (const std::string& name : held.series_names()) {
        // Series are named node<N>.power_w — the node id is embedded.
        const int node = std::atoi(name.c_str() + 4);
        for (const auto& p : held.samples(name))
          samples.push_back({node, p.t_s, p.value});
      }
    }
    v.list(samples, ',', ListForm::kVariable, [&](auto& p) {
      v.fields(':', bounded(p.node, 0, nodes), p.t_s, p.draw_w);
    });
    if constexpr (kDecoding)
      for (const Sample& p : samples) detector.observe(p.node, p.t_s, p.draw_w);
  });
  v.key("tl").section(self.timeline_, "timeline", [&](auto& timeline) {
    std::string csv;
    if constexpr (!kDecoding) csv = journal_escape(timeline.to_csv_string());
    v.text(csv);
    if constexpr (kDecoding)
      timeline.load_csv_string(journal_unescape(csv), "journal snapshot");
  });
}

std::string QueueEventLoop::serialize_state() const {
  // Snapshots fire every JournalOptions::snapshot_every records, making this
  // the journal's hot path: the writer appends into one reserved string.
  SnapshotWriter w(768 + 96 * jobs_.size() + 224 * running_.size());
  visit_state(*this, w);
  return w.take();
}

void QueueEventLoop::restore_state(const std::string& payload) {
  SnapshotReader r(payload);
  visit_state(*this, r);
  r.finish();
  index_pending();
  // Strings are re-derived, not serialized: a job has its names set from
  // the instant its first placement started.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (attempts_[j] > 0) {
      report_.jobs[j].app = jobs_[j].app.name;
      report_.jobs[j].parameters = jobs_[j].app.parameters;
    }
  }
}

// In-flight placements were resolved against the fault plan when they
// launched or last re-based; the snapshot stores that resolution. Re-derive
// each from the restored change_s / ff_remaining via FaultInjector::resolve
// (pure over the immutable crash/degrade schedule) and require bit-equality
// — a recovery against the wrong fault plan fails here, loudly.
void QueueEventLoop::rederive_running() {
  if (injector_ == nullptr) return;
  for (const Running& r : running_) {
    const fault::RunResolution res =
        injector_->resolve(r.change_s, r.ff_remaining, r.node_ids);
    CLIP_REQUIRE(res.end_s == r.end_s && res.crashed == r.crashed &&
                     res.crashed_node == r.crashed_node,
                 "recovered placement does not re-derive under the fault plan "
                 "(job " + std::to_string(r.job_index) + ")");
  }
}

QueueReport run_serially(
    sim::SimExecutor& executor, core::ClipScheduler& scheduler,
    Watts cluster_budget,
    const std::vector<workloads::WorkloadSignature>& jobs) {
  CLIP_REQUIRE(!jobs.empty(), "need at least one job");
  QueueReport report;
  double now = 0.0;
  for (const auto& job : jobs) {
    const core::ScheduleDecision d =
        scheduler.schedule(job, cluster_budget);
    const sim::Measurement m = executor.run_exact(job, d.cluster);
    QueuedJobResult r;
    r.app = job.name;
    r.parameters = job.parameters;
    r.submit_s = 0.0;
    r.start_s = now;
    now += m.time.value() + d.profiling_cost.value();
    r.end_s = now;
    r.nodes = d.cluster.nodes;
    r.budget_w = cluster_budget.value();
    r.power_w = m.avg_power.value();
    report.total_energy_j += m.energy.value();
    report.node_seconds_used += r.nodes * (r.end_s - r.start_s);
    report.jobs.push_back(std::move(r));
  }
  report.makespan_s = now;
  double turnaround = 0.0;
  for (const auto& r : report.jobs) turnaround += r.turnaround_s();
  report.mean_turnaround_s =
      turnaround / static_cast<double>(jobs.size());
  report.node_seconds_available =
      report.makespan_s * executor.spec().nodes;
  return report;
}

}  // namespace clip::runtime
