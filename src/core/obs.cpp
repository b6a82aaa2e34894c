#include "core/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "core/error.hpp"

namespace orbit2::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// One raw span event, as recorded on the hot path: pointers to caller-owned
// literals plus clocks. Copied into SpanRecord (owning strings) on snapshot.
struct Event {
  const char* name;
  const char* category;
  const char* arg_name;  // nullptr: none
  std::int64_t arg_value;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::int32_t depth;
  bool simulated;
};

// Buffer cap per thread: bounds trace memory on runaway runs (56 bytes an
// event, so at most 112 MiB a thread). Overflow is counted, not silently
// ignored. A traced train step records about 2,600 spans, one per tape node
// among them, so 20 s of two-thread training at 45 steps/s needs over 2^20
// on a thread.
constexpr std::size_t kMaxEventsPerThread = 1 << 21;

struct ThreadLog {
  std::mutex mutex;  // recorder vs snapshot/reset; uncontended in steady state
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadLog>> logs;  // outlive their threads
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  // Function-local static: recorder threads are quiescent by static
  // destruction time (the kernel pool joins its workers at exit), so plain
  // destruction order is safe here.
  static Registry r;
  return r;
}

std::atomic<std::int64_t> g_dropped{0};
std::atomic<double> g_sim_clock{0.0};

// Trace epoch: all wall timestamps are relative to the first use.
std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

thread_local std::shared_ptr<ThreadLog> tl_log;
thread_local std::int32_t tl_depth = 0;

ThreadLog& thread_log() {
  if (!tl_log) {
    auto log = std::make_shared<ThreadLog>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    log->tid = static_cast<std::uint32_t>(reg.logs.size());
    reg.logs.push_back(log);
    tl_log = std::move(log);
  }
  return *tl_log;
}

void record_event(const Event& event) {
  ThreadLog& log = thread_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (log.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  log.events.push_back(event);
}

// Minimal JSON string escaping for span/counter names.
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

void set_enabled(bool on) {
#if defined(ORBIT2_OBS_DISABLED)
  (void)on;
#else
  detail::g_enabled.store(on, std::memory_order_relaxed);
#endif
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& log : reg.logs) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    log->events.clear();
  }
  for (const auto& [name, c] : reg.counters) c->reset();
  for (const auto& [name, g] : reg.gauges) g->reset();
  for (const auto& [name, h] : reg.histograms) h->reset();
  g_dropped.store(0, std::memory_order_relaxed);
  g_sim_clock.store(0.0, std::memory_order_relaxed);
}

// ---- Span -----------------------------------------------------------------

Span::Span(const char* name, const char* category)
    : Span(name, category, nullptr, 0) {}

Span::Span(const char* name, const char* category, const char* arg_name,
           std::int64_t arg_value)
    : name_(name),
      category_(category),
      arg_name_(arg_name),
      arg_value_(arg_value) {
  if (!enabled()) return;
  depth_ = tl_depth++;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (start_ns_ < 0) return;
  --tl_depth;
  Event event;
  event.name = name_;
  event.category = category_;
  event.arg_name = arg_name_;
  event.arg_value = arg_value_;
  event.start_ns = start_ns_;
  event.dur_ns = now_ns() - start_ns_;
  event.depth = depth_;
  event.simulated = false;
  record_event(event);
}

// ---- Histogram ------------------------------------------------------------

void Histogram::observe(double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  sum_ += v;
  min_ = count_ == 1 ? v : std::min(min_, v);
  max_ = count_ == 1 ? v : std::max(max_, v);
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}
double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}
double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ > 0 ? min_ : std::numeric_limits<double>::infinity();
}
double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ > 0 ? max_ : -std::numeric_limits<double>::infinity();
}
void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// ---- Registry lookups -----------------------------------------------------

Counter& counter(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

// ---- Simulated-time track -------------------------------------------------

double sim_advance(double seconds) {
  double cur = g_sim_clock.load(std::memory_order_relaxed);
  while (!g_sim_clock.compare_exchange_weak(cur, cur + seconds,
                                            std::memory_order_relaxed)) {
  }
  return cur;
}

double sim_now() { return g_sim_clock.load(std::memory_order_relaxed); }

void sim_span(const char* name, const char* category, double begin_seconds,
              double duration_seconds) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.category = category;
  event.arg_name = nullptr;
  event.arg_value = 0;
  event.start_ns = static_cast<std::int64_t>(begin_seconds * 1e9);
  event.dur_ns = static_cast<std::int64_t>(duration_seconds * 1e9);
  event.depth = 0;
  event.simulated = true;
  record_event(event);
}

// ---- Introspection / export -----------------------------------------------

std::uint32_t current_tid() { return thread_log().tid; }

std::vector<SpanRecord> snapshot_spans() {
  std::vector<SpanRecord> out;
  Registry& reg = registry();
  // Copy the log list under the registry lock, then drain each log under
  // its own lock (recorders only ever take their own log lock, so this
  // order is deadlock-free).
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    logs = reg.logs;
  }
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> lock(log->mutex);
    for (const Event& e : log->events) {
      SpanRecord rec;
      rec.name = e.name;
      rec.category = e.category;
      if (e.arg_name != nullptr) rec.arg_name = e.arg_name;
      rec.arg_value = e.arg_value;
      rec.tid = log->tid;
      rec.start_ns = e.start_ns;
      rec.dur_ns = e.dur_ns;
      rec.depth = e.depth;
      rec.simulated = e.simulated;
      out.push_back(std::move(rec));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.simulated != b.simulated) return !a.simulated;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.depth < b.depth;
            });
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> counters() {
  std::vector<std::pair<std::string, std::int64_t>> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& [name, c] : reg.counters) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> gauges() {
  std::vector<std::pair<std::string, double>> out;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& [name, g] : reg.gauges) out.emplace_back(name, g->value());
  return out;
}

std::int64_t dropped_spans() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  const std::vector<SpanRecord> spans = snapshot_spans();
  const auto counter_values = counters();
  const auto gauge_values = gauges();

  std::string out;
  out.reserve(spans.size() * 128 + 4096);
  out += "{\n\"traceEvents\": [\n";

  // Process metadata: pid 1 = wall clock, pid 2 = simulated clock.
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"orbit2 (wall clock)\"}},\n";
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
      "\"args\": {\"name\": \"orbit2 hwsim (simulated clock)\"}}";

  std::int64_t last_wall_ns = 0;
  for (const SpanRecord& span : spans) {
    out += ",\n{\"name\": \"";
    append_escaped(out, span.name);
    out += "\", \"cat\": \"";
    append_escaped(out, span.category);
    out += "\", \"ph\": \"X\", \"pid\": ";
    out += span.simulated ? "2" : "1";
    out += ", \"tid\": ";
    out += std::to_string(span.simulated ? 0 : span.tid);
    out += ", \"ts\": ";
    append_number(out, static_cast<double>(span.start_ns) * 1e-3);
    out += ", \"dur\": ";
    append_number(out, static_cast<double>(span.dur_ns) * 1e-3);
    if (!span.arg_name.empty()) {
      out += ", \"args\": {\"";
      append_escaped(out, span.arg_name);
      out += "\": ";
      out += std::to_string(span.arg_value);
      out += "}";
    }
    out += "}";
    if (!span.simulated) {
      last_wall_ns = std::max(last_wall_ns, span.start_ns + span.dur_ns);
    }
  }

  // Final counter/gauge values as counter-track events at the trace end.
  const double end_ts = static_cast<double>(last_wall_ns) * 1e-3;
  for (const auto& [name, value] : counter_values) {
    out += ",\n{\"name\": \"";
    append_escaped(out, name);
    out += "\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": ";
    append_number(out, end_ts);
    out += ", \"args\": {\"value\": " + std::to_string(value) + "}}";
  }
  for (const auto& [name, value] : gauge_values) {
    out += ",\n{\"name\": \"";
    append_escaped(out, name);
    out += "\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": ";
    append_number(out, end_ts);
    out += ", \"args\": {\"value\": ";
    append_number(out, value);
    out += "}}";
  }

  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  out += "\"droppedSpans\": " + std::to_string(dropped_spans());
  out += ", \"simClockSeconds\": ";
  append_number(out, sim_now());
  out += "}\n}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ORBIT2_REQUIRE(f != nullptr, "cannot open trace file " << path);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  ORBIT2_REQUIRE(written == json.size() && close_rc == 0,
                 "short write to trace file " << path);
}

}  // namespace orbit2::obs
