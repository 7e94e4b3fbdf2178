//===- Client.cpp - Serve-protocol client -------------------------------------===//

#include "serve/Client.h"

#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace nv;

std::unique_ptr<ServeClient> ServeClient::connect(const std::string &Path,
                                                  std::string &Error,
                                                  const ClientOptions &Opts) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Error = "socket path too long: " + Path;
    return nullptr;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);

  // Non-blocking connect + poll gives the connect a deadline; the fd goes
  // back to blocking afterwards (readLine does its own poll-based
  // deadline, sends are small enough for the socket buffer).
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Opts.ConnectTimeoutMs && Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  int RC = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (RC != 0 && errno == EINPROGRESS && Opts.ConnectTimeoutMs) {
    pollfd P{Fd, POLLOUT, 0};
    int PN = ::poll(&P, 1, static_cast<int>(Opts.ConnectTimeoutMs));
    if (PN <= 0) {
      Error = Path + ": connect: timed out after " +
              std::to_string(Opts.ConnectTimeoutMs) + " ms";
      ::close(Fd);
      return nullptr;
    }
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &Len);
    RC = SoErr == 0 ? 0 : -1;
    errno = SoErr;
  }
  if (RC != 0) {
    Error = Path + ": connect: " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  if (Opts.ConnectTimeoutMs && Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags);
  return std::unique_ptr<ServeClient>(new ServeClient(Fd, Opts));
}

ServeClient::~ServeClient() {
  if (Fd >= 0)
    ::close(Fd);
}

bool ServeClient::send(const std::string &Line, std::string &Error) {
  std::string Data = Line;
  Data += '\n';
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      Error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool ServeClient::readLine(std::string &Out, std::string &Error) {
  TimedOut = false;
  char Chunk[4096];
  size_t Nl;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Opts.ReadTimeoutMs);
  while ((Nl = Buf.find('\n')) == std::string::npos) {
    if (Opts.ReadTimeoutMs) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0) {
        TimedOut = true;
        Error = "read timed out after " + std::to_string(Opts.ReadTimeoutMs) +
                " ms";
        return false;
      }
      pollfd P{Fd, POLLIN, 0};
      int PN = ::poll(&P, 1, static_cast<int>(Left));
      if (PN < 0) {
        if (errno == EINTR)
          continue;
        Error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      if (PN == 0)
        continue; // loop re-checks the deadline and times out
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = N == 0 ? "daemon closed the connection"
                     : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  Out = Buf.substr(0, Nl);
  Buf.erase(0, Nl + 1);
  if (!Out.empty() && Out.back() == '\r')
    Out.pop_back();
  return true;
}

bool ServeClient::request(const std::string &Line, std::string &Response,
                          std::string &Error) {
  return send(Line, Error) && readLine(Response, Error);
}

//===----------------------------------------------------------------------===//
// Retry / backoff
//===----------------------------------------------------------------------===//

static uint64_t xorshift64(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

unsigned nv::retryDelayMs(unsigned Attempt, const RetryOptions &Opts,
                          uint64_t &JitterState, unsigned RetryAfterMs) {
  if (Attempt == 0)
    return RetryAfterMs;
  uint64_t Delay = Opts.BackoffBaseMs ? Opts.BackoffBaseMs : 1;
  for (unsigned I = 1; I < Attempt && Delay < Opts.BackoffCapMs; ++I)
    Delay *= 2;
  if (Delay > Opts.BackoffCapMs)
    Delay = Opts.BackoffCapMs;
  // Jitter into [delay/2, delay]: enough spread to break retry lockstep,
  // never so much that the cap is exceeded or the wait collapses to 0.
  uint64_t Half = Delay / 2;
  if (Half)
    Delay = Half + xorshift64(JitterState) % (Half + 1);
  // The server's hint is a floor, not a cap: it knows its backlog.
  if (Delay < RetryAfterMs)
    Delay = RetryAfterMs;
  return static_cast<unsigned>(Delay);
}

bool ResilientClient::request(const std::string &Line, std::string &Response,
                              std::string &Error) {
  TimedOut = false;
  Error.clear();
  for (unsigned Attempt = 1;; ++Attempt) {
    unsigned RetryAfterMs = 0;
    bool Transient = false;

    if (!Conn)
      Conn = ServeClient::connect(Path, Error, CO);
    if (!Conn) {
      // Refused/absent: the supervisor may be restarting the worker and
      // the socket will come back. (connect() reports its own timeout as
      // an error string; that is transient too — the daemon may be
      // saturated in accept.)
      Transient = true;
    } else if (Conn->request(Line, Response, Error)) {
      Json R;
      std::string ParseErr;
      if (Json::parse(Response, R, ParseErr) && R.getBool("overloaded")) {
        // Shed by admission control: transient by design. Honor the
        // server's backoff hint; the connection itself is fine.
        Transient = true;
        RetryAfterMs =
            static_cast<unsigned>(R.getNumber("retry_after_ms", 0));
        Error = "server overloaded";
      } else {
        return true; // any other response, error responses included
      }
    } else {
      if (Conn->timedOut()) {
        // The request may still be running server-side; re-sending would
        // double the work. Surface the timeout instead.
        TimedOut = true;
        Conn.reset();
        return false;
      }
      // Reset / daemon closed: the worker likely died mid-request. The
      // journal replays accepted work, so retrying is safe for the
      // engine and at worst recomputes.
      Conn.reset();
      Transient = true;
    }

    if (!Transient || Attempt >= RO.MaxAttempts) {
      if (Transient)
        Error += " (gave up after " + std::to_string(Attempt) + " attempts)";
      return false;
    }
    ++Retries;
    unsigned DelayMs = retryDelayMs(Attempt, RO, JitterState, RetryAfterMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  }
}
