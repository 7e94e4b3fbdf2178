//===- Fleet.cpp - Crash-isolated worker fleet for sharded analyses ----------===//

#include "support/Fleet.h"

#include "support/Journal.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace nv;

//===----------------------------------------------------------------------===//
// Frame I/O
//
// Same shape as journal frames — u32le length, u32le FNV-1a32, payload —
// with the payload's first byte a message type. The checksum is not
// paranoia-theater: a worker dying mid-write leaves a torn frame on the
// pipe, and the coordinator must classify that as "worker died" rather
// than misparse half a record.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t MaxFleetFrame = 64u << 20;

void putU32le(std::string &Out, uint32_t V) {
  Out.push_back(char(V & 0xff));
  Out.push_back(char((V >> 8) & 0xff));
  Out.push_back(char((V >> 16) & 0xff));
  Out.push_back(char((V >> 24) & 0xff));
}

uint32_t getU32le(const unsigned char *P) {
  return uint32_t(P[0]) | (uint32_t(P[1]) << 8) | (uint32_t(P[2]) << 16) |
         (uint32_t(P[3]) << 24);
}

bool writeFrameFd(int Fd, char Type, const std::string &Payload) {
  std::string F;
  F.reserve(9 + Payload.size());
  std::string Body;
  Body.reserve(1 + Payload.size());
  Body.push_back(Type);
  Body += Payload;
  putU32le(F, uint32_t(Body.size()));
  putU32le(F, fnv1a32(Body.data(), Body.size()));
  F += Body;
  const char *P = F.data();
  size_t N = F.size();
  while (N > 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= size_t(W);
  }
  return true;
}

bool readExact(int Fd, char *P, size_t N) {
  while (N > 0) {
    ssize_t R = ::read(Fd, P, N);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (R == 0)
      return false;
    P += R;
    N -= size_t(R);
  }
  return true;
}

/// Blocking frame read (worker side). 1 = frame, 0 = clean EOF at a frame
/// boundary, -1 = corrupt or error.
int readFrameBlocking(int Fd, char &Type, std::string &Payload) {
  unsigned char Hdr[8];
  // Detect EOF cleanly only at a boundary: the first byte decides.
  for (;;) {
    ssize_t R = ::read(Fd, Hdr, 1);
    if (R == 1)
      break;
    if (R == 0)
      return 0;
    if (errno != EINTR)
      return -1;
  }
  if (!readExact(Fd, reinterpret_cast<char *>(Hdr) + 1, 7))
    return -1;
  uint32_t Len = getU32le(Hdr);
  uint32_t Sum = getU32le(Hdr + 4);
  if (Len == 0 || Len > MaxFleetFrame)
    return -1;
  std::string Body(Len, '\0');
  if (!readExact(Fd, Body.data(), Len))
    return -1;
  if (fnv1a32(Body.data(), Body.size()) != Sum)
    return -1;
  Type = Body[0];
  Payload.assign(Body, 1, Body.size() - 1);
  return 1;
}

/// Extracts the next complete frame from a coordinator-side buffer.
/// 1 = frame, 0 = need more bytes, -1 = corrupt stream.
int popFrame(std::string &Buf, size_t &Off, char &Type, std::string &Payload) {
  if (Buf.size() - Off < 8)
    return 0;
  const auto *P = reinterpret_cast<const unsigned char *>(Buf.data()) + Off;
  uint32_t Len = getU32le(P);
  uint32_t Sum = getU32le(P + 4);
  if (Len == 0 || Len > MaxFleetFrame)
    return -1;
  if (Buf.size() - Off - 8 < Len)
    return 0;
  if (fnv1a32(Buf.data() + Off + 8, Len) != Sum)
    return -1;
  Type = Buf[Off + 8];
  Payload.assign(Buf, Off + 9, Len - 1);
  Off += 8 + size_t(Len);
  if (Off > (1u << 16) && Off * 2 > Buf.size()) {
    Buf.erase(0, Off);
    Off = 0;
  }
  return 1;
}

uint64_t nowMs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// Options / stats
//===----------------------------------------------------------------------===//

void nv::applyFleetEnvOverrides(FleetOptions &O) {
  auto U = [](const char *Name, unsigned &Out) {
    if (const char *V = std::getenv(Name); V && *V)
      Out = unsigned(std::strtoul(V, nullptr, 10));
  };
  U("NV_FLEET_HEARTBEAT_MS", O.HeartbeatMs);
  U("NV_FLEET_LIVENESS_TIMEOUT_MS", O.LivenessTimeoutMs);
  U("NV_FLEET_POISON_THRESHOLD", O.PoisonThreshold);
  U("NV_FLEET_BACKOFF_BASE_MS", O.BackoffBaseMs);
  U("NV_FLEET_BACKOFF_CAP_MS", O.BackoffCapMs);
  U("NV_FLEET_STRAGGLER_MIN_MS", O.StragglerMinMs);
  if (const char *V = std::getenv("NV_FLEET_STRAGGLER_FACTOR"); V && *V)
    O.StragglerFactor = std::strtod(V, nullptr);
  if (const char *V = std::getenv("NV_FLEET_SPECULATE"); V && *V)
    O.Speculate = *V != '0';
  if (const char *V = std::getenv("NV_FLEET_QUARANTINE_DIR"); V && *V)
    O.QuarantineDir = V;
}

FleetStats &FleetStats::operator+=(const FleetStats &O) {
  JobsCompleted += O.JobsCompleted;
  JobsRequeued += O.JobsRequeued;
  WorkerDeaths += O.WorkerDeaths;
  Respawns += O.Respawns;
  SpawnFailures += O.SpawnFailures;
  HeartbeatTimeouts += O.HeartbeatTimeouts;
  SpeculativeLaunches += O.SpeculativeLaunches;
  SpeculativeWins += O.SpeculativeWins;
  SpeculationMismatches += O.SpeculationMismatches;
  Quarantined += O.Quarantined;
  if (!O.LastExit.empty())
    LastExit = O.LastExit;
  return *this;
}

std::string FleetStats::str() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%llu jobs, %llu requeued, %llu deaths, %llu respawns, "
                "%llu heartbeat timeouts, %llu speculative (%llu wins), "
                "%llu quarantined",
                (unsigned long long)JobsCompleted,
                (unsigned long long)JobsRequeued,
                (unsigned long long)WorkerDeaths, (unsigned long long)Respawns,
                (unsigned long long)HeartbeatTimeouts,
                (unsigned long long)SpeculativeLaunches,
                (unsigned long long)SpeculativeWins,
                (unsigned long long)Quarantined);
  std::string S = Buf;
  if (!LastExit.empty())
    S += ", last exit " + LastExit;
  return S;
}

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

namespace {

/// NV_FLEET_POISON_KEY test hook: a deterministic crasher for quarantine
/// tests and chaos CI — the planted job dies like a real segfault would.
void maybePoison(const std::string &Key) {
  const char *P = std::getenv("NV_FLEET_POISON_KEY");
  if (P && Key == P) {
    std::fprintf(stderr,
                 "nv fleet worker %ld: poison job '%s' (test hook); aborting\n",
                 (long)getpid(), Key.c_str());
    std::abort();
  }
}

/// NV_FLEET_WEDGE_KEY test hook: stop heartbeating and hang, so the
/// coordinator's liveness timeout is exercised. With WEDGE_ONCE_FILE set,
/// only the worker that wins the latch wedges — the requeued job then
/// completes on the respawned worker.
void maybeWedge(const std::string &Key, std::atomic<bool> &PauseBeats) {
  const char *W = std::getenv("NV_FLEET_WEDGE_KEY");
  if (!W || Key != W)
    return;
  if (const char *Latch = std::getenv("NV_FLEET_WEDGE_ONCE_FILE")) {
    int Fd = ::open(Latch, O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (Fd < 0)
      return; // latch already taken: run the job normally
    ::close(Fd);
  }
  PauseBeats.store(true, std::memory_order_relaxed);
  std::fprintf(stderr, "nv fleet worker %ld: wedging on job '%s' (test hook)\n",
               (long)getpid(), Key.c_str());
  for (;;)
    ::pause(); // the coordinator SIGKILLs us
}

/// What a worker sends instead of \p Rec, \p Bytes long, whose 'R' frame
/// would pass the cap: the coordinator reads an oversized frame as a dead
/// worker, so the unit fails by name instead.
UnitRecord oversizedRecord(const UnitRecord &Rec, size_t Bytes) {
  RunOutcome O;
  unsigned Attempts = 1;
  parseOutcome(Rec, O, Attempts);
  UnitRecord Out;
  Out.Key = Rec.Key;
  addOutcome(Out,
             {RunStatus::InternalError,
              "unit record of " + std::to_string(Bytes) +
                  " bytes exceeds the fleet frame cap of " +
                  std::to_string(MaxFleetFrame) + " bytes",
              ""},
             Attempts);
  return Out;
}

} // namespace

int nv::runFleetWorker(const std::function<UnitRecord(const FleetJob &)> &Handler,
                       const FleetWorkerOptions &Opts) {
  // Quarantine-repro mode: one job, record to stdout, no pipes.
  if (const char *K = std::getenv("NV_FLEET_ONE_JOB")) {
    const char *S = std::getenv("NV_FLEET_ONE_JOB_SPEC");
    FleetJob J{K, S ? S : ""};
    maybePoison(J.Key);
    UnitRecord Rec = Handler(J);
    Rec.Key = J.Key;
    std::fputs(Rec.render().c_str(), stdout);
    return 0;
  }

  unsigned HeartbeatMs = 250;
  if (const char *V = std::getenv("NV_FLEET_HEARTBEAT_MS"); V && *V)
    HeartbeatMs = std::max(10u, unsigned(std::strtoul(V, nullptr, 10)));
  // A dying coordinator closes our pipes; surface that as EPIPE, not a
  // process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  std::mutex WriteM;            // OutFd is shared with the beater thread
  std::mutex CurM;
  std::string CurKey;           // guarded by CurM
  std::atomic<bool> StopBeats{false}, PauseBeats{false};

  std::thread Beater([&] {
    for (;;) {
      for (unsigned Slept = 0; Slept < HeartbeatMs; Slept += 20) {
        if (StopBeats.load(std::memory_order_relaxed))
          return;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (PauseBeats.load(std::memory_order_relaxed))
        continue;
      std::string Key;
      {
        std::lock_guard<std::mutex> L(CurM);
        Key = CurKey;
      }
      std::lock_guard<std::mutex> L(WriteM);
      if (!writeFrameFd(Opts.OutFd, 'H', Key))
        return; // coordinator is gone; the main loop will see EOF
    }
  });
  // Joins even when the handler throws: the worker then dies by the CLI's
  // structured exit path, not by std::terminate.
  struct BeaterJoin {
    std::atomic<bool> &Stop;
    std::thread &T;
    ~BeaterJoin() {
      Stop.store(true, std::memory_order_relaxed);
      T.join();
    }
  } Join{StopBeats, Beater};

  {
    std::lock_guard<std::mutex> L(WriteM);
    writeFrameFd(Opts.OutFd, 'W', std::to_string(getpid()));
  }

  for (;;) {
    char Type = 0;
    std::string Payload;
    int N = readFrameBlocking(Opts.InFd, Type, Payload);
    if (N == 0)
      return 0; // clean EOF: coordinator is done with us
    if (N < 0) {
      std::fprintf(stderr, "nv fleet worker %ld: corrupt job stream\n",
                   (long)getpid());
      return 2;
    }
    if (Type == 'Q')
      return 0;
    if (Type != 'J')
      continue;

    size_t Nl = Payload.find('\n');
    FleetJob J;
    J.Key = Payload.substr(0, Nl);
    if (Nl != std::string::npos)
      J.Spec = Payload.substr(Nl + 1);
    {
      std::lock_guard<std::mutex> L(CurM);
      CurKey = J.Key;
    }
    maybeWedge(J.Key, PauseBeats);
    // Deliberately outside any try: an injected fleet-dispatch fault (or
    // any handler exception) kills this worker loudly, which is exactly
    // the crash the coordinator's requeue/respawn machinery must absorb.
    Governor::pollSafePoint(GovSite::FleetDispatch);
    maybePoison(J.Key);
    UnitRecord Rec = Handler(J);
    Rec.Key = J.Key;
    std::string Body = Rec.render();
    if (Body.size() >= MaxFleetFrame) // the type byte shares the cap
      Body = oversizedRecord(Rec, Body.size()).render();
    {
      std::lock_guard<std::mutex> L(WriteM);
      if (!writeFrameFd(Opts.OutFd, 'R', Body))
        return 0; // coordinator gone
    }
    {
      std::lock_guard<std::mutex> L(CurM);
      CurKey.clear();
    }
  }
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

namespace {

struct Slot {
  pid_t Pid = -1;
  int JobFd = -1; ///< Write end: jobs to the worker.
  int ResFd = -1; ///< Read end: results/heartbeats (nonblocking).
  bool Live = false;
  bool Eof = false;    ///< Worker closed its result pipe; awaiting reap.
  bool Killed = false; ///< SIGKILL already sent (liveness/fault path).
  bool Idle = true;
  std::string JobKey; ///< "" when idle.
  uint64_t LastBeatMs = 0;
  uint64_t NextSpawnAtMs = 0;
  uint64_t Generation = 0; ///< Spawns of this slot (0 = never spawned).
  unsigned ConsecutiveFailures = 0;
  std::string Buf;
  size_t BufOff = 0;
};

struct JobState {
  FleetJob Job;
  bool Done = false;
  unsigned Deaths = 0;
  int PrimarySlot = -1;
  int SpecSlot = -1;
  uint64_t StartMs = 0;
  std::string WinnerRender; ///< First result, for duplicate comparison.
};

std::string shellQuote(const std::string &S) {
  std::string Q = "'";
  for (char C : S) {
    if (C == '\'')
      Q += "'\\''";
    else
      Q += C;
  }
  Q += "'";
  return Q;
}

/// Writes the runnable quarantine repro script, creating QuarantineDir if
/// needed, and returns its path ("" on failure). The script re-execs the
/// worker command on just the poison job via the NV_FLEET_ONE_JOB hook.
std::string writeQuarantineRepro(const FleetOptions &Opts, const JobState &JS,
                                 const std::string &LastExit) {
  std::string Name = "nv-quarantine-";
  for (char C : JS.Job.Key)
    Name += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  Name += ".sh";
  std::string Path = Name;
  if (!Opts.QuarantineDir.empty()) {
    std::error_code EC; // a failure shows as the fopen's
    std::filesystem::create_directories(Opts.QuarantineDir, EC);
    Path = Opts.QuarantineDir + "/" + Name;
  }
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return "";
  std::fprintf(F, "#!/bin/sh\n");
  std::fprintf(F,
               "# nv fleet quarantine: job '%s' killed %u workers "
               "(last exit %s).\n",
               JS.Job.Key.c_str(), JS.Deaths, LastExit.c_str());
  std::fprintf(F, "# Re-runs the job in one isolated worker; expect it to "
                  "reproduce the failure.\n");
  std::string Env = "NV_FLEET_ONE_JOB=" + shellQuote(JS.Job.Key) +
                    " NV_FLEET_ONE_JOB_SPEC=" + shellQuote(JS.Job.Spec);
  // Preserve the synthetic-crasher hook so a planted poison job's repro
  // actually reproduces (a real crasher needs no help).
  if (const char *P = std::getenv("NV_FLEET_POISON_KEY"))
    Env += " NV_FLEET_POISON_KEY=" + shellQuote(P);
  std::fprintf(F, "exec env %s \\\n ", Env.c_str());
  for (const std::string &A : Opts.WorkerArgv)
    std::fprintf(F, " %s", shellQuote(A).c_str());
  std::fprintf(F, "\n");
  std::fclose(F);
  ::chmod(Path.c_str(), 0755);
  return Path;
}

class Coordinator {
public:
  Coordinator(const FleetOptions &Opts, const std::vector<FleetJob> &Queue,
              const FleetCallbacks &CB);

  FleetResult run();

private:
  bool haveWork() const {
    return !Pending.empty() || DoneCount < Jobs.size();
  }
  bool spawnSlot(unsigned I);
  void closeSlotFds(Slot &S);
  void handleDeath(unsigned I, const ChildExit &Exit);
  void killSlot(unsigned I);
  void reap(bool CountDeaths);
  void checkLiveness();
  void spawnWhereNeeded();
  void dispatch();
  void trySpeculate(unsigned IdleSlot);
  void pollAndRead();
  void handleFrame(unsigned I, char Type, const std::string &Payload);
  void completeJob(JobState &JS, const UnitRecord &Rec, int FromSlot);
  void quarantine(JobState &JS);
  void requeue(JobState &JS);
  void detachSlotFromJob(unsigned I, JobState &JS);
  uint64_t medianDurationMs() const;
  void drainWorkers();
  void logf(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  const FleetOptions &Opts;
  const FleetCallbacks &CB;

  std::vector<Slot> Slots;
  std::unordered_map<std::string, JobState> Jobs;
  std::deque<std::string> Pending;
  std::vector<uint64_t> Durations;
  uint64_t DoneCount = 0;
  unsigned ConsecSpawnFailures = 0;
  FleetResult R;
};

void Coordinator::logf(const char *Fmt, ...) {
  if (!Opts.Verbose)
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
}

Coordinator::Coordinator(const FleetOptions &Opts,
                         const std::vector<FleetJob> &Queue,
                         const FleetCallbacks &CB)
    : Opts(Opts), CB(CB), Slots(std::max(1u, Opts.Workers)) {
  for (const FleetJob &J : Queue) {
    auto [It, Fresh] = Jobs.emplace(J.Key, JobState{});
    if (!Fresh) {
      logf("nv fleet: duplicate job key '%s' ignored\n", J.Key.c_str());
      continue;
    }
    It->second.Job = J;
    Pending.push_back(It->first);
  }
}

void Coordinator::closeSlotFds(Slot &S) {
  if (S.JobFd >= 0)
    ::close(S.JobFd);
  if (S.ResFd >= 0)
    ::close(S.ResFd);
  S.JobFd = S.ResFd = -1;
}

bool Coordinator::spawnSlot(unsigned I) {
  Slot &S = Slots[I];
  auto Fail = [&](const std::string &Why) {
    ++R.Stats.SpawnFailures;
    ++ConsecSpawnFailures;
    ++S.ConsecutiveFailures;
    S.NextSpawnAtMs = nowMs() + nextRestartDelayMs(S.ConsecutiveFailures,
                                                   Opts.BackoffBaseMs,
                                                   Opts.BackoffCapMs);
    logf("nv fleet: spawn failed for slot %u: %s\n", I, Why.c_str());
    return false;
  };
  try {
    Governor::pollSafePoint(GovSite::FleetSpawn);
  } catch (const EngineError &E) {
    return Fail(E.outcome().str());
  }

  int JobP[2], ResP[2];
  if (::pipe2(JobP, O_CLOEXEC) != 0)
    return Fail(std::string("pipe failed: ") + std::strerror(errno));
  if (::pipe2(ResP, O_CLOEXEC) != 0) {
    ::close(JobP[0]);
    ::close(JobP[1]);
    return Fail(std::string("pipe failed: ") + std::strerror(errno));
  }

  std::vector<std::pair<std::string, std::string>> SetEnv = {
      {"NV_FLEET_HEARTBEAT_MS", std::to_string(Opts.HeartbeatMs)}};
  // One armed NV_FAULT_INJECT countdown should behave like one process-
  // wide countdown does in-process: first-generation workers inherit it,
  // respawns do not (otherwise every respawn re-arms and crash-loops
  // straight into quarantine).
  std::vector<std::string> UnsetEnv;
  if (S.Generation > 0)
    UnsetEnv.push_back("NV_FAULT_INJECT");

  std::string Err;
  pid_t Pid = spawnProcess(Opts.WorkerArgv, {{3, JobP[0]}, {4, ResP[1]}},
                           SetEnv, UnsetEnv, Err);
  ::close(JobP[0]);
  ::close(ResP[1]);
  if (Pid < 0) {
    ::close(JobP[1]);
    ::close(ResP[0]);
    return Fail(Err);
  }
  int Flags = ::fcntl(ResP[0], F_GETFL);
  ::fcntl(ResP[0], F_SETFL, Flags | O_NONBLOCK);

  S.Pid = Pid;
  S.JobFd = JobP[1];
  S.ResFd = ResP[0];
  S.Live = true;
  S.Eof = S.Killed = false;
  S.Idle = true;
  S.JobKey.clear();
  S.LastBeatMs = nowMs();
  S.Buf.clear();
  S.BufOff = 0;
  if (S.Generation > 0)
    ++R.Stats.Respawns;
  ++S.Generation;
  ConsecSpawnFailures = 0;
  // chaos_fleet.sh greps this line to aim its kill -9 at workers.
  logf("nv fleet: worker pid %ld slot %u generation %llu\n", (long)Pid, I,
       (unsigned long long)(S.Generation - 1));
  if (CB.OnSpawn)
    CB.OnSpawn(Pid, I);
  return true;
}

void Coordinator::detachSlotFromJob(unsigned I, JobState &JS) {
  if (JS.PrimarySlot == int(I))
    JS.PrimarySlot = -1;
  if (JS.SpecSlot == int(I))
    JS.SpecSlot = -1;
}

void Coordinator::requeue(JobState &JS) {
  Pending.push_front(JS.Job.Key);
  ++R.Stats.JobsRequeued;
  logf("nv fleet: requeue job '%s' (death %u)\n", JS.Job.Key.c_str(),
       JS.Deaths);
}

void Coordinator::quarantine(JobState &JS) {
  std::string Repro = writeQuarantineRepro(Opts, JS, R.Stats.LastExit);
  logf("nv fleet: job '%s' quarantined after %u worker deaths; repro: %s\n",
       JS.Job.Key.c_str(), JS.Deaths,
       Repro.empty() ? "(unwritable)" : Repro.c_str());
  UnitRecord Rec;
  Rec.Key = JS.Job.Key;
  RunOutcome O{RunStatus::Quarantined,
               "killed " + std::to_string(JS.Deaths) + " workers (last exit " +
                   R.Stats.LastExit + ")",
               ""};
  addOutcome(Rec, O, JS.Deaths);
  if (!Repro.empty())
    Rec.add("repro", Repro);
  JS.Done = true;
  JS.WinnerRender = Rec.render();
  ++DoneCount;
  ++R.Stats.Quarantined;
  R.QuarantinedKeys.push_back(JS.Job.Key);
  R.Results[JS.Job.Key] = Rec;
  if (CB.OnResult)
    CB.OnResult(Rec);
}

void Coordinator::handleDeath(unsigned I, const ChildExit &Exit) {
  Slot &S = Slots[I];
  R.Stats.LastExit = Exit.describe();
  ++R.Stats.WorkerDeaths;
  logf("nv fleet: worker pid %ld died (%s)%s%s\n", (long)S.Pid,
       R.Stats.LastExit.c_str(), S.JobKey.empty() ? "" : " on job ",
       S.JobKey.c_str());
  closeSlotFds(S);
  S.Live = false;
  S.Pid = -1;
  ++S.ConsecutiveFailures;
  S.NextSpawnAtMs = nowMs() + nextRestartDelayMs(S.ConsecutiveFailures,
                                                 Opts.BackoffBaseMs,
                                                 Opts.BackoffCapMs);
  if (S.JobKey.empty())
    return;
  auto It = Jobs.find(S.JobKey);
  S.JobKey.clear();
  S.Idle = true;
  if (It == Jobs.end())
    return;
  JobState &JS = It->second;
  detachSlotFromJob(I, JS);
  if (JS.Done)
    return; // a speculative loser died; the result already landed
  ++JS.Deaths;
  if (JS.PrimarySlot != -1 || JS.SpecSlot != -1)
    return; // the other copy is still running it
  if (JS.Deaths >= Opts.PoisonThreshold)
    quarantine(JS);
  else
    requeue(JS);
}

void Coordinator::killSlot(unsigned I) {
  Slot &S = Slots[I];
  if (S.Live && S.Pid > 0 && !S.Killed) {
    ::kill(S.Pid, SIGKILL);
    S.Killed = true;
  }
}

void Coordinator::reap(bool CountDeaths) {
  for (unsigned I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (!S.Live || S.Pid <= 0)
      continue;
    ChildExit Exit;
    int W = waitForChild(S.Pid, /*Block=*/false, Exit);
    if (W != 1)
      continue;
    if (CountDeaths) {
      handleDeath(I, Exit);
    } else {
      closeSlotFds(S);
      S.Live = false;
      S.Pid = -1;
    }
  }
}

void Coordinator::checkLiveness() {
  uint64_t Now = nowMs();
  for (unsigned I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (!S.Live || S.Killed)
      continue;
    if (Now - S.LastBeatMs > Opts.LivenessTimeoutMs) {
      ++R.Stats.HeartbeatTimeouts;
      logf("nv fleet: worker pid %ld silent for %llu ms; killing\n",
           (long)S.Pid, (unsigned long long)(Now - S.LastBeatMs));
      killSlot(I);
    }
  }
}

void Coordinator::spawnWhereNeeded() {
  if (!haveWork())
    return;
  uint64_t Now = nowMs();
  for (unsigned I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (S.Live || Now < S.NextSpawnAtMs)
      continue;
    spawnSlot(I);
  }
}

uint64_t Coordinator::medianDurationMs() const {
  if (Durations.empty())
    return 0;
  std::vector<uint64_t> D = Durations;
  size_t Mid = D.size() / 2;
  std::nth_element(D.begin(), D.begin() + ptrdiff_t(Mid), D.end());
  return D[Mid];
}

void Coordinator::trySpeculate(unsigned IdleSlot) {
  if (!Opts.Speculate || Durations.empty())
    return;
  uint64_t Median = medianDurationMs();
  uint64_t Threshold =
      std::max<uint64_t>(Opts.StragglerMinMs,
                         uint64_t(double(Median) * Opts.StragglerFactor));
  uint64_t Now = nowMs();
  for (auto &[Key, JS] : Jobs) {
    if (JS.Done || JS.PrimarySlot == -1 || JS.SpecSlot != -1)
      continue;
    if (Now - JS.StartMs <= Threshold)
      continue;
    Slot &S = Slots[IdleSlot];
    if (!writeFrameFd(S.JobFd, 'J', JS.Job.Key + "\n" + JS.Job.Spec)) {
      killSlot(IdleSlot);
      return;
    }
    S.Idle = false;
    S.JobKey = JS.Job.Key;
    JS.SpecSlot = int(IdleSlot);
    ++R.Stats.SpeculativeLaunches;
    logf("nv fleet: straggler '%s' (%llu ms > %llu ms); speculative "
         "re-execution on slot %u\n",
         Key.c_str(), (unsigned long long)(Now - JS.StartMs),
         (unsigned long long)Threshold, IdleSlot);
    return;
  }
}

void Coordinator::dispatch() {
  for (unsigned I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (!S.Live || !S.Idle || S.Killed || S.Eof)
      continue;
    if (Pending.empty()) {
      if (DoneCount < Jobs.size())
        trySpeculate(I);
      continue;
    }
    std::string Key = Pending.front();
    Pending.pop_front();
    JobState &JS = Jobs[Key];
    if (!writeFrameFd(S.JobFd, 'J', JS.Job.Key + "\n" + JS.Job.Spec)) {
      // Worker is dying under us: put the job back and let the reap path
      // do the bookkeeping.
      Pending.push_front(Key);
      killSlot(I);
      continue;
    }
    S.Idle = false;
    S.JobKey = Key;
    JS.PrimarySlot = int(I);
    JS.StartMs = nowMs();
  }
}

void Coordinator::completeJob(JobState &JS, const UnitRecord &Rec,
                              int FromSlot) {
  if (JS.Done) {
    // Duplicate (speculative) result: byte-compare against the winner. A
    // mismatch means the shard is nondeterministic — exactly the bug the
    // bit-identical-aggregate contract exists to catch.
    if (Rec.render() != JS.WinnerRender) {
      ++R.Stats.SpeculationMismatches;
      std::fprintf(stderr,
                   "nv fleet: WARNING: speculative results for '%s' differ "
                   "(shard nondeterminism?)\n",
                   JS.Job.Key.c_str());
    }
    return;
  }
  JS.Done = true;
  JS.WinnerRender = Rec.render();
  ++DoneCount;
  ++R.Stats.JobsCompleted;
  Durations.push_back(nowMs() - JS.StartMs);
  if (FromSlot == JS.SpecSlot && JS.SpecSlot != -1)
    ++R.Stats.SpeculativeWins;
  R.Results[JS.Job.Key] = Rec;
  if (CB.OnResult)
    CB.OnResult(Rec);
}

void Coordinator::handleFrame(unsigned I, char Type, const std::string &Payload) {
  Slot &S = Slots[I];
  if (Type != 'R')
    return; // 'H'/'W' only exist to refresh LastBeatMs, done by the caller
  try {
    Governor::pollSafePoint(GovSite::FleetResult);
  } catch (const EngineError &E) {
    // Degradation: drop the result, kill the worker, and let the death
    // path requeue its job — the injected fault costs one redundant
    // execution, never the run.
    logf("nv fleet: result handling faulted (%s); dropping result from "
         "pid %ld\n",
         E.outcome().str().c_str(), (long)S.Pid);
    killSlot(I);
    return;
  }
  UnitRecord Rec;
  if (!UnitRecord::parse(Payload, Rec) || Rec.Key != S.JobKey) {
    logf("nv fleet: malformed result from pid %ld; killing\n", (long)S.Pid);
    killSlot(I);
    return;
  }
  auto It = Jobs.find(Rec.Key);
  S.JobKey.clear();
  S.Idle = true;
  S.ConsecutiveFailures = 0; // completing work counts as healthy
  if (It == Jobs.end())
    return;
  detachSlotFromJob(I, It->second);
  completeJob(It->second, Rec, int(I));
}

void Coordinator::pollAndRead() {
  std::vector<struct pollfd> Pfds;
  std::vector<unsigned> PfdSlot;
  for (unsigned I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (!S.Live || S.Eof || S.ResFd < 0)
      continue;
    Pfds.push_back({S.ResFd, POLLIN, 0});
    PfdSlot.push_back(I);
  }
  if (Pfds.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return;
  }
  int N = ::poll(Pfds.data(), Pfds.size(), 20);
  if (N <= 0)
    return;
  for (size_t P = 0; P < Pfds.size(); ++P) {
    if (!(Pfds[P].revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    unsigned I = PfdSlot[P];
    Slot &S = Slots[I];
    char Buf[1 << 14];
    for (;;) {
      ssize_t Rd = ::read(S.ResFd, Buf, sizeof(Buf));
      if (Rd > 0) {
        S.Buf.append(Buf, size_t(Rd));
        S.LastBeatMs = nowMs();
        continue;
      }
      if (Rd == 0) {
        S.Eof = true; // worker exiting; reap() finishes the story
        break;
      }
      if (errno == EINTR)
        continue;
      break; // EAGAIN
    }
    for (;;) {
      char Type = 0;
      std::string Payload;
      int F = popFrame(S.Buf, S.BufOff, Type, Payload);
      if (F == 0)
        break;
      if (F < 0) {
        logf("nv fleet: corrupt result stream from pid %ld; killing\n",
             (long)S.Pid);
        killSlot(I);
        break;
      }
      handleFrame(I, Type, Payload);
    }
  }
}

void Coordinator::drainWorkers() {
  for (Slot &S : Slots)
    if (S.Live && S.JobFd >= 0) {
      writeFrameFd(S.JobFd, 'Q', "");
      ::close(S.JobFd);
      S.JobFd = -1;
    }
  uint64_t Deadline = nowMs() + 2000;
  for (;;) {
    reap(/*CountDeaths=*/false);
    bool AnyLive = false;
    for (Slot &S : Slots)
      AnyLive |= S.Live;
    if (!AnyLive)
      return;
    if (nowMs() >= Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (unsigned I = 0; I < Slots.size(); ++I)
    killSlot(I);
  for (Slot &S : Slots) {
    if (!S.Live || S.Pid <= 0)
      continue;
    ChildExit Exit;
    waitForChild(S.Pid, /*Block=*/true, Exit);
    closeSlotFds(S);
    S.Live = false;
  }
}

FleetResult Coordinator::run() {
  if (Opts.WorkerArgv.empty()) {
    R.Outcome = RunOutcome{RunStatus::InternalError, "fleet has no worker argv",
                           ""};
    return R;
  }
  // EPIPE over SIGPIPE for job-frame writes to dying workers.
  struct sigaction Ign, OldPipe;
  std::memset(&Ign, 0, sizeof(Ign));
  Ign.sa_handler = SIG_IGN;
  sigemptyset(&Ign.sa_mask);
  sigaction(SIGPIPE, &Ign, &OldPipe);

  while (haveWork()) {
    if (Opts.Cancel && Opts.Cancel->isCanceled()) {
      R.Outcome = RunOutcome{RunStatus::Canceled, "fleet canceled", ""};
      for (unsigned I = 0; I < Slots.size(); ++I)
        if (Slots[I].Live && Slots[I].Pid > 0)
          ::kill(Slots[I].Pid, SIGTERM);
      drainWorkers();
      sigaction(SIGPIPE, &OldPipe, nullptr);
      return R;
    }
    reap(/*CountDeaths=*/true);
    checkLiveness();
    spawnWhereNeeded();

    bool AnyLive = false;
    for (Slot &S : Slots)
      AnyLive |= S.Live;
    if (!AnyLive) {
      if (ConsecSpawnFailures > Opts.SpawnFailureCap) {
        R.Outcome = RunOutcome{RunStatus::InternalError,
                               "fleet cannot keep workers alive (" +
                                   std::to_string(ConsecSpawnFailures) +
                                   " consecutive spawn failures)",
                               ""};
        drainWorkers();
        sigaction(SIGPIPE, &OldPipe, nullptr);
        return R;
      }
      // Everything is in respawn backoff; wait it out.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    dispatch();
    pollAndRead();
  }
  drainWorkers();
  sigaction(SIGPIPE, &OldPipe, nullptr);
  R.Outcome = RunOutcome{}; // ok: every job has a record
  return R;
}

} // namespace

FleetResult nv::runFleet(const FleetOptions &Opts,
                         const std::vector<FleetJob> &Jobs,
                         const FleetCallbacks &CB) {
  Coordinator C(Opts, Jobs, CB);
  return C.run();
}
