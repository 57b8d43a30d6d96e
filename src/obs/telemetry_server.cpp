#include "obs/telemetry_server.hpp"

// The status snapshot is pushed by the queue thread and served by the
// accept thread; every touch goes through mu_ (clip-analyze L1 enforces
// the write side).
// clip-lint: guards(mu_: snapshot_)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"

namespace clip::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr std::size_t kMaxResponseBytes = 8u << 20;

/// Bounded receive/send deadlines so a stalled peer cannot wedge the
/// accept thread. A plain socket option, not a clock read.
void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

std::string http_response(int code, std::string_view reason,
                          std::string_view content_type,
                          const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << code << ' ' << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

/// `key` from a query string "a=1&b=2"; empty when absent.
std::string query_param(std::string_view query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    auto amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const auto eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key)
      return std::string(pair.substr(eq + 1));
    pos = amp + 1;
  }
  return "";
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string StatusSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"now_s\":" << format_exact(now_s)
      << ",\"queue_depth\":" << queue_depth
      << ",\"running_jobs\":" << running_jobs
      << ",\"free_watts\":" << format_exact(free_watts) << ",\"mode\":\""
      << json_escape(mode) << "\",\"journal_seq\":" << journal_seq
      << ",\"jobs_completed\":" << jobs_completed
      << ",\"jobs_failed\":" << jobs_failed
      << ",\"run_active\":" << (run_active ? "true" : "false") << "}\n";
  return out.str();
}

TelemetryServer::TelemetryServer(TelemetryServerOptions options)
    : options_(options) {
  CLIP_REQUIRE(options_.port >= 0 && options_.port <= 65535,
               "telemetry port out of range: " +
                   std::to_string(options_.port));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  CLIP_REQUIRE(listen_fd_ >= 0, "telemetry server: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    CLIP_REQUIRE(false, "telemetry server: cannot bind 127.0.0.1:" +
                            std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  CLIP_REQUIRE(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "telemetry server: getsockname() failed");
  port_ = static_cast<int>(ntohs(bound.sin_port));

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake the blocking accept(): shutdown makes it return with an error.
  // The descriptor is closed and reset only after the accept thread has
  // exited — the thread reads listen_fd_ on every iteration, so resetting
  // it earlier is a data race (and a closed number could be reused).
  if (listen_fd_ >= 0) (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::publish(const StatusSnapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = snapshot;
}

void TelemetryServer::serve() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // transient (EINTR, aborted connection)
    }
    handle_connection(fd);
    (void)::close(fd);
  }
}

void TelemetryServer::handle_connection(int fd) {
  set_io_timeouts(fd);
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const auto line_end = request.find('\n');
  if (line_end == std::string::npos) return;
  std::istringstream line(request.substr(0, line_end));
  std::string method;
  std::string target;
  line >> method >> target;
  if (method != "GET" || target.empty()) {
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "only GET is supported\n"));
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  send_all(fd, respond(target));
}

std::string TelemetryServer::respond(const std::string& target) const {
  std::string path = target;
  std::string query;
  if (const auto q = target.find('?'); q != std::string::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }

  if (path == "/metrics") {
    const std::string body =
        options_.metrics != nullptr ? options_.metrics->render_prometheus()
                                    : std::string();
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8", body);
  }

  if (path == "/healthz") {
    StatusSnapshot snap;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      snap = snapshot_;
    }
    if (snap.mode == "NORMAL")
      return http_response(200, "OK", "text/plain",
                           "ok mode=NORMAL\n");
    return http_response(503, "Service Unavailable", "text/plain",
                         "degraded mode=" + snap.mode + "\n");
  }

  if (path == "/status") {
    StatusSnapshot snap;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      snap = snapshot_;
    }
    return http_response(200, "OK", "application/json", snap.to_json());
  }

  if (path == "/timeline") {
    const std::string series = query_param(query, "series");
    if (series.empty())
      return http_response(400, "Bad Request", "text/plain",
                           "usage: /timeline?series=<name>[&n=<tail>]\n");
    std::size_t tail = options_.timeline_tail;
    if (const std::string n = query_param(query, "n"); !n.empty()) {
      char* end = nullptr;
      const long v = std::strtol(n.c_str(), &end, 10);
      if (end != n.c_str() && *end == '\0' && v > 0)
        tail = static_cast<std::size_t>(v);
    }
    std::ostringstream body;
    if (options_.timeline != nullptr) {
      auto samples = options_.timeline->samples(series);
      if (samples.size() > tail)
        samples.erase(samples.begin(),
                      samples.end() - static_cast<std::ptrdiff_t>(tail));
      for (const auto& p : samples)
        body << "{\"kind\":\"sample\",\"series\":\"" << json_escape(series)
             << "\",\"t_s\":" << format_exact(p.t_s)
             << ",\"value\":" << format_exact(p.value) << "}\n";
      auto events = options_.timeline->events(series);
      if (events.size() > tail)
        events.erase(events.begin(),
                     events.end() - static_cast<std::ptrdiff_t>(tail));
      for (const auto& e : events)
        body << "{\"kind\":\"event\",\"series\":\"" << json_escape(series)
             << "\",\"t_s\":" << format_exact(e.t_s) << ",\"label\":\""
             << json_escape(e.label) << "\"}\n";
    }
    return http_response(200, "OK", "application/x-ndjson", body.str());
  }

  return http_response(404, "Not Found", "text/plain",
                       "unknown endpoint; try /metrics /healthz /status "
                       "/timeline?series=<name>\n");
}

std::string http_get(const std::string& host, int port,
                     const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLIP_REQUIRE(fd >= 0, "http_get: socket() failed");
  set_io_timeouts(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    CLIP_REQUIRE(false, "http_get: bad host '" + host +
                            "' (use a dotted quad or localhost)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    CLIP_REQUIRE(false, "http_get: cannot connect to " + ip + ":" +
                            std::to_string(port));
  }
  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  send_all(fd, request);

  std::string response;
  char buf[4096];
  while (response.size() < kMaxResponseBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  if (const auto p = response.find("\r\n\r\n"); p != std::string::npos)
    return response.substr(p + 4);
  if (const auto p = response.find("\n\n"); p != std::string::npos)
    return response.substr(p + 2);
  return response;
}

}  // namespace clip::obs
