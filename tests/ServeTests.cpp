//===- ServeTests.cpp - nv serve service-layer tests --------------------------===//
//
// Tests of the long-lived verification service: the JSON codec, the
// journal-backed request queue, session lifecycle (create/evict/LRU),
// warm-cache reuse producing bit-identical results to a cold run,
// per-request Governor isolation under concurrency, cancellation of an
// in-flight request (the client-disconnect path), journal replay of an
// interrupted request queue, and the Unix-socket transport end to end.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "support/Json.h"
#include "serve/RequestLog.h"
#include "serve/Serve.h"
#include "serve/Server.h"
#include "serve/Supervisor.h"

#include "analysis/FaultTolerance.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace nv;

namespace {

/// Shortest-path line network with an all-reachable assert: one failed
/// link partitions the line, so ft finds violations deterministically.
std::string spProgram() {
  return R"(let nodes = 4
let edges = {0n=1n;1n=2n;2n=3n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) = match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) = match x, y with | _, None -> x | None, _ -> y | Some a, Some b -> if a <= b then x else y
let assert (u : node) (x : option[int]) = match x with | None -> false | Some d -> true
)";
}

/// Count-to-infinity: prefer-larger merge on a cycle diverges, so a run
/// only ends when a budget or cancellation stops it.
std::string divergingProgram() {
  return R"(let nodes = 2
let edges = {0n=1n;1n=0n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) = match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) = match x, y with | _, None -> x | None, _ -> y | Some a, Some b -> if a <= b then y else x
)";
}

/// One-line JSON string field helper for request construction.
std::string jstr(const std::string &S) { return Json(S).dump(); }

std::string loadLine(const std::string &Session, const std::string &Prog) {
  return "{\"verb\":\"load\",\"session\":" + jstr(Session) +
         ",\"program\":" + jstr(Prog) + "}";
}

std::string tmpPath(const std::string &Stem) {
  return testing::TempDir() + Stem + "." + std::to_string(::getpid());
}

} // namespace

//===----------------------------------------------------------------------===//
// Json codec
//===----------------------------------------------------------------------===//

TEST(ServeJson, RoundTripAndDeterministicOrder) {
  Json O = Json::object();
  O.set("verb", "load");
  O.set("count", 42);
  O.set("ratio", 1.5);
  O.set("flag", true);
  O.set("nothing", Json());
  Json Arr = Json::array();
  Arr.push(1);
  Arr.push("two");
  O.set("items", std::move(Arr));
  std::string Text = O.dump();
  // Insertion order is preserved, integers print without a fraction.
  EXPECT_EQ(Text, "{\"verb\":\"load\",\"count\":42,\"ratio\":1.5,"
                  "\"flag\":true,\"nothing\":null,\"items\":[1,\"two\"]}");
  Json Back;
  std::string Err;
  ASSERT_TRUE(Json::parse(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.dump(), Text);
}

TEST(ServeJson, StringEscapes) {
  Json S(std::string("a\"b\\c\nd\te\x01"));
  std::string Text = S.dump();
  EXPECT_EQ(Text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  Json Back;
  std::string Err;
  ASSERT_TRUE(Json::parse(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.str(), S.str());
  // \u escapes incl. surrogate pairs decode to UTF-8.
  ASSERT_TRUE(Json::parse("\"\\u0041\\ud83d\\ude00\"", Back, Err)) << Err;
  EXPECT_EQ(Back.str(), "A\xF0\x9F\x98\x80");
}

TEST(ServeJson, ParseErrorsCarryOffsets) {
  Json V;
  std::string Err;
  EXPECT_FALSE(Json::parse("{\"a\":1", V, Err));
  EXPECT_NE(Err.find("offset"), std::string::npos);
  EXPECT_FALSE(Json::parse("{} trailing", V, Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos);
  EXPECT_FALSE(Json::parse("{\"a\" 1}", V, Err));
  EXPECT_FALSE(Json::parse("\"\\ud800\"", V, Err)); // lone surrogate
  EXPECT_FALSE(Json::parse("", V, Err));
}

TEST(ServeJson, TypedAccessorsWithDefaults) {
  Json V;
  std::string Err;
  ASSERT_TRUE(Json::parse("{\"n\":7,\"s\":\"x\",\"b\":true}", V, Err));
  EXPECT_EQ(V.getNumber("n", 0), 7);
  EXPECT_EQ(V.getNumber("missing", 3), 3);
  EXPECT_EQ(V.getString("s"), "x");
  EXPECT_EQ(V.getString("n", "d"), "d"); // wrong type -> default
  EXPECT_TRUE(V.getBool("b"));
}

//===----------------------------------------------------------------------===//
// RequestLog
//===----------------------------------------------------------------------===//

TEST(RequestLog, RecordsAndComputesPending) {
  std::string Path = tmpPath("reqlog");
  std::remove(Path.c_str());
  {
    RequestLog::OpenResult O = RequestLog::open(Path);
    ASSERT_TRUE(O.Log) << O.Error;
    EXPECT_TRUE(O.Log->pending().empty());
    O.Log->recordAccepted("r1", "{\"verb\":\"ping\"}");
    O.Log->recordDone("r1", 0, "ok");
    O.Log->recordAccepted("r2", "{\"verb\":\"stats\"}");
    // r2 never completes: the "crash".
  }
  RequestLog::OpenResult O = RequestLog::open(Path);
  ASSERT_TRUE(O.Log) << O.Error;
  ASSERT_EQ(O.Log->pending().size(), 1u);
  EXPECT_EQ(O.Log->pending()[0].Id, "r2");
  EXPECT_EQ(O.Log->pending()[0].Body, "{\"verb\":\"stats\"}");
  EXPECT_EQ(O.Log->nextSeq(), 3u); // past the largest journaled id
  EXPECT_EQ(O.Log->acceptedCount(), 2u);
  EXPECT_EQ(O.Log->doneCount(), 1u);
  std::remove(Path.c_str());
}

TEST(RequestLog, RejectsForeignJournal) {
  std::string Path = tmpPath("foreignlog");
  std::remove(Path.c_str());
  {
    std::string Err;
    auto W = createJournal(Path, "tool=nv\ncommand=ft\n", Err);
    ASSERT_TRUE(W) << Err;
  }
  RequestLog::OpenResult O = RequestLog::open(Path);
  EXPECT_FALSE(O.Log);
  EXPECT_TRUE(O.Hard); // binding mismatch = user error, exit 2
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// ServeCore sessions
//===----------------------------------------------------------------------===//

TEST(ServeCore, SessionLifecycleAndErrorTaxonomy) {
  ServeConfig Cfg;
  Cfg.Threads = 1;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;

  // Protocol errors are code 2 (user error), not crashes.
  EXPECT_EQ(Core.executeLine("not json").getNumber("code", -1), 2);
  EXPECT_EQ(Core.executeLine("[1,2]").getNumber("code", -1), 2);
  EXPECT_EQ(Core.executeLine("{\"verb\":\"nope\"}").getNumber("code", -1), 2);
  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"ghost\"}")
                .getNumber("code", -1),
            2);

  Json Ping = Core.executeLine("{\"verb\":\"ping\"}");
  EXPECT_TRUE(Ping.getBool("ok"));

  Json Load = Core.executeLine(loadLine("a", spProgram()));
  ASSERT_EQ(Load.getNumber("code", -1), 0) << Load.dump();
  EXPECT_EQ(Load.getString("session"), "a");
  EXPECT_EQ(Load.getNumber("nodes", 0), 4);
  EXPECT_EQ(Load.getNumber("edges", 0), 3);

  Json Sim = Core.executeLine("{\"verb\":\"sim\",\"session\":\"a\"}");
  EXPECT_EQ(Sim.getNumber("code", -1), 0) << Sim.dump();
  EXPECT_TRUE(Sim.getBool("converged"));

  // A bad program is a code-2 response with diagnostics, session intact.
  Json Bad = Core.executeLine(loadLine("b", "let nodes = ("));
  EXPECT_EQ(Bad.getNumber("code", -1), 2);
  EXPECT_NE(Bad.getString("error").find("parse error"), std::string::npos);

  Json Unload = Core.executeLine("{\"verb\":\"unload\",\"session\":\"a\"}");
  EXPECT_EQ(Unload.getNumber("code", -1), 0);
  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"a\"}")
                .getNumber("code", -1),
            2);
}

TEST(ServeCore, LruEvictionKeepsRecentlyUsed) {
  ServeConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxSessions = 2;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;

  EXPECT_EQ(Core.executeLine(loadLine("s1", spProgram())).getNumber("code", -1),
            0);
  EXPECT_EQ(Core.executeLine(loadLine("s2", spProgram())).getNumber("code", -1),
            0);
  // Touch s1 so s2 is the LRU victim when s3 arrives.
  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"s1\"}")
                .getNumber("code", -1),
            0);
  Json Load3 = Core.executeLine(loadLine("s3", spProgram()));
  EXPECT_EQ(Load3.getNumber("code", -1), 0);
  EXPECT_EQ(Load3.getNumber("evicted", 0), 1);

  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"s1\"}")
                .getNumber("code", -1),
            0);
  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"s2\"}")
                .getNumber("code", -1),
            2); // evicted
  EXPECT_EQ(Core.executeLine("{\"verb\":\"sim\",\"session\":\"s3\"}")
                .getNumber("code", -1),
            0);
}

//===----------------------------------------------------------------------===//
// Warm-cache reuse: bit-identical to cold
//===----------------------------------------------------------------------===//

TEST(ServeCore, WarmFtRepeatIsBitIdenticalToColdAndDirect) {
  // The reference: a direct (cold) runFaultTolerance on the same program,
  // fingerprinted with the same blob idiom the service uses.
  DiagnosticEngine Diags;
  auto P = parseProgram(spProgram(), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  FtOptions Opts;
  FtRunResult Direct = runFaultTolerance(*P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(Direct.Outcome.ok()) << Direct.Outcome.str();
  std::string Blob;
  for (const FtViolation &V : Direct.Check.Violations)
    Blob += V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
            V.routeStr() + "\n";
  std::string DirectHash = fnv1a64Hex(Blob);
  ASSERT_FALSE(Direct.Check.Violations.empty()); // line net: real violations

  ServeConfig Cfg;
  Cfg.Threads = 1;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("n", spProgram())).getNumber("code", -1),
            0);

  Json Cold = Core.executeLine("{\"verb\":\"ft\",\"session\":\"n\"}");
  ASSERT_EQ(Cold.getNumber("code", -1), 1) << Cold.dump(); // violations
  EXPECT_FALSE(Cold.getBool("warm"));
  EXPECT_EQ(Cold.getString("violations_hash"), DirectHash);

  // "fresh" bypasses the result memo: the engines actually re-run, on the
  // cached transform/evaluators, and must reproduce the cold bits.
  for (int I = 0; I < 3; ++I) {
    Json Warm = Core.executeLine(
        "{\"verb\":\"ft\",\"session\":\"n\",\"fresh\":true}");
    ASSERT_EQ(Warm.getNumber("code", -1), 1) << Warm.dump();
    EXPECT_TRUE(Warm.getBool("warm"));
    EXPECT_FALSE(Warm.getBool("cached"));
    EXPECT_EQ(Warm.getNumber("transform_ms", -1), 0); // transform skipped
    EXPECT_EQ(Warm.getString("violations_hash"), DirectHash);
    EXPECT_EQ(Warm.getNumber("scenarios", -1), Cold.getNumber("scenarios", -2));
    EXPECT_EQ(Warm.getNumber("violations", -1),
              Cold.getNumber("violations", -2));
  }

  // A plain repeat is a result-memo hit: same verdict bits, no engine run.
  Json Memo = Core.executeLine("{\"verb\":\"ft\",\"session\":\"n\"}");
  ASSERT_EQ(Memo.getNumber("code", -1), 1) << Memo.dump();
  EXPECT_TRUE(Memo.getBool("cached"));
  EXPECT_EQ(Memo.getString("violations_hash"), DirectHash);

  // A different variant key is its own cold entry (both cache layers).
  Json Node = Core.executeLine(
      "{\"verb\":\"ft\",\"session\":\"n\",\"node\":true}");
  EXPECT_FALSE(Node.getBool("warm"));
  EXPECT_FALSE(Node.getBool("cached"));
  Json Stats = Core.statsJson();
  const Json *FtCache = Stats.get("ft_cache");
  ASSERT_NE(FtCache, nullptr);
  EXPECT_EQ(FtCache->getNumber("hits", -1), 3);
  EXPECT_EQ(FtCache->getNumber("misses", -1), 2);
  const Json *ResCache = Stats.get("result_cache");
  ASSERT_NE(ResCache, nullptr);
  EXPECT_EQ(ResCache->getNumber("hits", -1), 1);
  // The cold ft and the node variant looked up and missed; fresh repeats
  // never consult the memo.
  EXPECT_EQ(ResCache->getNumber("misses", -1), 2);
}

//===----------------------------------------------------------------------===//
// Per-request governance
//===----------------------------------------------------------------------===//

TEST(ServeCore, BudgetTripIsolatedFromConcurrentRequests) {
  ServeConfig Cfg;
  Cfg.Threads = 4;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("x", spProgram())).getNumber("code", -1),
            0);
  ASSERT_EQ(Core.executeLine(loadLine("y", spProgram())).getNumber("code", -1),
            0);

  // Concurrently: a budget-doomed ft on x, healthy fts on y.
  auto Doomed =
      Core.submit("{\"verb\":\"ft\",\"session\":\"x\",\"max_steps\":1}");
  auto Healthy1 = Core.submit("{\"verb\":\"ft\",\"session\":\"y\"}");
  auto Healthy2 = Core.submit("{\"verb\":\"sim\",\"session\":\"y\"}");
  Json DoomedR = Doomed->wait();
  Json HealthyR1 = Healthy1->wait();
  Json HealthyR2 = Healthy2->wait();
  EXPECT_EQ(DoomedR.getNumber("code", -1), 3) << DoomedR.dump();
  EXPECT_EQ(DoomedR.getString("outcome_status"), "step-budget-exceeded");
  EXPECT_EQ(HealthyR1.getNumber("code", -1), 1) << HealthyR1.dump();
  EXPECT_EQ(HealthyR2.getNumber("code", -1), 0) << HealthyR2.dump();

  // The tripped session is not poisoned: the same query, unbudgeted, runs.
  Json After = Core.executeLine("{\"verb\":\"ft\",\"session\":\"x\"}");
  EXPECT_EQ(After.getNumber("code", -1), 1) << After.dump();

  // Budget trips never memoize: re-issuing the doomed request re-runs it.
  Json Doomed2 =
      Core.executeLine("{\"verb\":\"ft\",\"session\":\"x\",\"max_steps\":1}");
  EXPECT_EQ(Doomed2.getNumber("code", -1), 3);
  EXPECT_FALSE(Doomed2.getBool("cached"));
}

TEST(ServeCore, BudgetlessRequestKeepsTheEngineStepBudget) {
  // A request that names no budget field runs under the engine's default
  // budget, as the same CLI run does — not an unlimited one.
  auto Budget = [](const char *Line, RunBudget B) {
    Json Req;
    std::string Error;
    EXPECT_TRUE(Json::parse(Line, Req, Error)) << Error;
    EXPECT_TRUE(overlayRequestBudget(Req, B, Error)) << Error;
    return B;
  };
  const RunBudget Sim = SimOptions{}.Budget, Ft = FtOptions{}.Budget;
  ASSERT_GT(Sim.MaxSteps, 0u);
  EXPECT_EQ(Budget("{\"verb\":\"sim\",\"session\":\"d\"}", Sim).MaxSteps,
            Sim.MaxSteps);
  EXPECT_EQ(Budget("{\"verb\":\"ft\",\"session\":\"d\"}", Ft).MaxSteps,
            Ft.MaxSteps);
  RunBudget D = Budget("{\"deadline_ms\":2.5,\"node_budget\":64}", Sim);
  EXPECT_EQ(D.MaxSteps, Sim.MaxSteps);
  EXPECT_EQ(D.DeadlineMs, 2.5);
  EXPECT_EQ(D.MaxLiveNodes, 64u);
  RunBudget All = Budget(
      "{\"max_steps\":10,\"heap_budget\":4096,\"deadline_ms\":7}", Sim);
  EXPECT_EQ(All.MaxSteps, 10u);
  EXPECT_EQ(All.MaxHeapBytes, 4096u);
  EXPECT_EQ(All.DeadlineMs, 7);
}

TEST(ServeCore, MalformedNumbersAreRejectedWithCode2) {
  ServeConfig Cfg;
  Cfg.Threads = 1;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("n", spProgram())).getNumber("code", -1),
            0);
  // Negative, fractional, non-numeric and out-of-range values of every
  // numeric field, on the verb that reads it.
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"ft", "links"},          {"verify", "timeout_ms"},
      {"sim", "max_steps"},     {"sim", "node_budget"},
      {"sim", "heap_budget"},   {"ft", "max_steps"},
      {"verify", "max_steps"},  {"sim", "deadline_ms"}};
  for (const auto &[Verb, Field] : Cases)
    for (const char *Bad : {"-1", "2.7", "\"2\"", "true", "null", "1e30"}) {
      if (Field == "deadline_ms" && (!std::strcmp(Bad, "2.7") ||
                                     !std::strcmp(Bad, "1e30")))
        continue; // a deadline may be fractional, and is a double
      std::string Line = "{\"verb\":\"" + Verb +
                         "\",\"session\":\"n\",\"" + Field + "\":" + Bad +
                         "}";
      SCOPED_TRACE(Line);
      Json R = Core.executeLine(Line);
      EXPECT_EQ(R.getNumber("code", -1), 2) << R.dump();
      EXPECT_NE(R.getString("error").find(Field), std::string::npos)
          << R.dump();
    }
  // links one past the unsigned range; well-formed numbers still run.
  Json Big = Core.executeLine(
      "{\"verb\":\"ft\",\"session\":\"n\",\"links\":4294967296}");
  EXPECT_EQ(Big.getNumber("code", -1), 2) << Big.dump();
  Json Ok = Core.executeLine(
      "{\"verb\":\"ft\",\"session\":\"n\",\"links\":1,\"max_steps\":"
      "100000,\"deadline_ms\":60000.5}");
  EXPECT_EQ(Ok.getNumber("code", -1), 1) << Ok.dump();
}

TEST(ServeCore, CancelTokenStopsInFlightRequest) {
  ServeConfig Cfg;
  Cfg.Threads = 2; // a pool of one would run submit() inline
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(
      Core.executeLine(loadLine("d", divergingProgram())).getNumber("code", -1),
      0);

  // The diverging sim would run ~100M steps; the cancel (the client-
  // disconnect path in the socket layer) stops it at a safe point. The
  // deadline is a backstop so a cancellation bug fails rather than hangs.
  auto Cancel = std::make_shared<CancelToken>();
  auto Pending = Core.submit(
      "{\"verb\":\"sim\",\"session\":\"d\",\"deadline_ms\":60000}", Cancel);
  EXPECT_FALSE(Pending->waitFor(50)); // genuinely in flight
  Cancel->requestCancel();
  Json R = Pending->wait();
  EXPECT_EQ(R.getNumber("code", -1), 3) << R.dump();
  EXPECT_EQ(R.getString("outcome_status"), "canceled");

  // The session survives the canceled request.
  Json After = Core.executeLine(
      "{\"verb\":\"sim\",\"session\":\"d\",\"max_steps\":100}");
  EXPECT_EQ(After.getNumber("code", -1), 3);
  EXPECT_EQ(After.getString("outcome_status"), "step-budget-exceeded");
}

//===----------------------------------------------------------------------===//
// Journal replay
//===----------------------------------------------------------------------===//

TEST(ServeCore, ReplaysInterruptedRequestQueue) {
  std::string Path = tmpPath("servelog");
  std::remove(Path.c_str());

  // A "crashed" daemon: load accepted AND done, ft accepted but not done.
  // (recordDone for the load is what a real crash between the two
  // requests leaves behind; the ft must replay, and replaying it only
  // works because the *load* — with its client-chosen session id — is
  // also still in the journal... so journal the load as pending too.)
  {
    RequestLog::OpenResult O = RequestLog::open(Path);
    ASSERT_TRUE(O.Log) << O.Error;
    O.Log->recordAccepted("r1", loadLine("replayed", spProgram()));
    O.Log->recordAccepted("r2", "{\"verb\":\"ft\",\"session\":\"replayed\"}");
  }

  ServeConfig Cfg;
  Cfg.Threads = 1;
  Cfg.JournalPath = Path;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  EXPECT_EQ(Res.Core->replayedCount(), 2u);

  // The replayed load rebuilt the session: a fresh recompute hits the
  // transform cache the replayed ft primed, and a plain repeat is
  // answered from the result memo the replay populated.
  Json Warm = Res.Core->executeLine(
      "{\"verb\":\"ft\",\"session\":\"replayed\",\"fresh\":true}");
  EXPECT_EQ(Warm.getNumber("code", -1), 1) << Warm.dump();
  EXPECT_TRUE(Warm.getBool("warm"));
  Json Memo =
      Res.Core->executeLine("{\"verb\":\"ft\",\"session\":\"replayed\"}");
  EXPECT_EQ(Memo.getNumber("code", -1), 1) << Memo.dump();
  EXPECT_TRUE(Memo.getBool("cached"));

  // New ids never collide with journaled ones.
  EXPECT_EQ(Warm.getString("id"), "r3");
  Res.Core.reset();

  // The queue drained durably: nothing pending on the next open.
  RequestLog::OpenResult O = RequestLog::open(Path);
  ASSERT_TRUE(O.Log) << O.Error;
  EXPECT_TRUE(O.Log->pending().empty());
  std::remove(Path.c_str());
}

TEST(ServeCore, ReplayedShutdownDoesNotStopFreshDaemon) {
  std::string Path = tmpPath("shutdownlog");
  std::remove(Path.c_str());
  {
    RequestLog::OpenResult O = RequestLog::open(Path);
    ASSERT_TRUE(O.Log) << O.Error;
    O.Log->recordAccepted("r1", "{\"verb\":\"shutdown\"}");
  }
  ServeConfig Cfg;
  Cfg.Threads = 1;
  Cfg.JournalPath = Path;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  EXPECT_EQ(Res.Core->replayedCount(), 1u);
  EXPECT_FALSE(Res.Core->shutdownRequested());
  std::remove(Path.c_str());
}

TEST(ServeCore, CorruptJournalIsHardError) {
  std::string Path = tmpPath("badlog");
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("garbage, not a journal\n", F);
    std::fclose(F);
  }
  ServeConfig Cfg;
  Cfg.JournalPath = Path;
  auto Res = ServeCore::create(Cfg);
  EXPECT_FALSE(Res.Core);
  EXPECT_TRUE(Res.Hard);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

TEST(ServeServer, EndToEndOverUnixSocket) {
  Server::Options Opts;
  Opts.SocketPath = tmpPath("sock");
  Opts.Core.Threads = 2;
  Server::CreateResult Res = Server::create(Opts);
  ASSERT_TRUE(Res.Srv) << Res.Error;
  std::atomic<int> ExitCode{-1};
  std::thread Runner(
      [&] { ExitCode.store(Res.Srv->run(/*Cancel=*/nullptr)); });

  std::string Err, Resp;
  auto Client = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client) << Err;
  ASSERT_TRUE(Client->request("{\"verb\":\"ping\"}", Resp, Err)) << Err;
  Json R;
  ASSERT_TRUE(Json::parse(Resp, R, Err)) << Err;
  EXPECT_TRUE(R.getBool("ok"));

  ASSERT_TRUE(Client->request(loadLine("s", spProgram()), Resp, Err)) << Err;
  ASSERT_TRUE(Json::parse(Resp, R, Err)) << Err;
  ASSERT_EQ(R.getNumber("code", -1), 0) << Resp;

  // A second client sees the first client's session: state is shared.
  auto Client2 = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client2) << Err;
  ASSERT_TRUE(
      Client2->request("{\"verb\":\"ft\",\"session\":\"s\"}", Resp, Err))
      << Err;
  ASSERT_TRUE(Json::parse(Resp, R, Err)) << Err;
  EXPECT_EQ(R.getNumber("code", -1), 1) << Resp;

  ASSERT_TRUE(Client->request("{\"verb\":\"shutdown\"}", Resp, Err)) << Err;
  Runner.join();
  EXPECT_EQ(ExitCode.load(), 0);
}

//===----------------------------------------------------------------------===//
// Admission control / overload
//===----------------------------------------------------------------------===//

namespace {

/// Spins until the core's health verb reports \p Active engine requests
/// executing (the worker picked the blocking request up), or fails.
void waitForEngineActive(ServeCore &Core, int Active) {
  for (int I = 0; I < 400; ++I) {
    Json H = Core.executeLine("{\"verb\":\"health\"}");
    if (H.getNumber("engine_active", -1) == Active)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "engine_active never reached " << Active;
}

} // namespace

TEST(ServeAdmission, ShedsEngineVerbsWithRetryHintAdmitsControlVerbs) {
  ServeConfig Cfg;
  Cfg.Threads = 2; // one worker runs requests
  Cfg.MaxInflight = 1;
  Cfg.QueueDepth = 0; // any engine request while one runs is shed
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("d", divergingProgram()))
                .getNumber("code", -1),
            0);
  EXPECT_EQ(Core.executeLine("{\"verb\":\"health\"}").getString("state"),
            "ready");

  // Occupy the single slot with a run that only ends when canceled.
  auto Cancel = std::make_shared<CancelToken>();
  auto Blocker =
      Core.submit("{\"verb\":\"sim\",\"session\":\"d\",\"max_steps\":"
                  "1000000000}",
                  Cancel);
  waitForEngineActive(Core, 1);

  // An engine verb is shed with the full overload response shape...
  Json Shed = Core.submit("{\"verb\":\"sim\",\"session\":\"d\"}")->wait();
  EXPECT_EQ(Shed.getNumber("code", -1), 3) << Shed.dump();
  EXPECT_FALSE(Shed.getBool("ok"));
  EXPECT_TRUE(Shed.getBool("overloaded"));
  EXPECT_GE(Shed.getNumber("retry_after_ms", 0), 25);
  EXPECT_LE(Shed.getNumber("retry_after_ms", 0), 5000);
  EXPECT_EQ(Shed.getString("outcome_status"), "overloaded");

  // ...while control verbs still get through, and health says why.
  Json Ping = Core.submit("{\"verb\":\"ping\"}")->wait();
  EXPECT_EQ(Ping.getNumber("code", -1), 0) << Ping.dump();
  Json H = Core.executeLine("{\"verb\":\"health\"}");
  EXPECT_EQ(H.getString("state"), "overloaded") << H.dump();
  EXPECT_EQ(H.getNumber("shed", -1), 1);

  Cancel->requestCancel();
  Json BlockerR = Blocker->wait();
  EXPECT_EQ(BlockerR.getString("outcome_status"), "canceled");

  // Capacity released: engine verbs run again and health recovers.
  Json After = Core.submit("{\"verb\":\"sim\",\"session\":\"d\","
                           "\"max_steps\":10}")
                   ->wait();
  EXPECT_EQ(After.getString("outcome_status"), "step-budget-exceeded")
      << After.dump();
  EXPECT_EQ(Core.executeLine("{\"verb\":\"health\"}").getString("state"),
            "ready");
  Json Stats = Core.statsJson();
  const Json *Adm = Stats.get("admission");
  ASSERT_NE(Adm, nullptr);
  EXPECT_EQ(Adm->getNumber("shed", -1), 1);
  EXPECT_EQ(Adm->getNumber("max_inflight", -1), 1);
}

TEST(ServeAdmission, ShedRequestsAreNeverJournaled) {
  std::string Path = tmpPath("shedlog");
  std::remove(Path.c_str());
  {
    ServeConfig Cfg;
    Cfg.Threads = 2;
    Cfg.MaxInflight = 1;
    Cfg.QueueDepth = 0;
    Cfg.JournalPath = Path;
    auto Res = ServeCore::create(Cfg);
    ASSERT_TRUE(Res.Core) << Res.Error;
    ServeCore &Core = *Res.Core;
    ASSERT_EQ(Core.executeLine(loadLine("d", divergingProgram()))
                  .getNumber("code", -1),
              0);
    auto Cancel = std::make_shared<CancelToken>();
    auto Blocker = Core.submit(
        "{\"verb\":\"sim\",\"session\":\"d\",\"max_steps\":1000000000}",
        Cancel);
    waitForEngineActive(Core, 1);
    for (int I = 0; I < 3; ++I) {
      Json Shed = Core.submit("{\"verb\":\"sim\",\"session\":\"d\"}")->wait();
      ASSERT_TRUE(Shed.getBool("overloaded")) << Shed.dump();
    }
    Cancel->requestCancel();
    Blocker->wait();
  }
  // The journal saw exactly the load, the blocker, and nothing shed —
  // and nothing is pending, so a restart replays no rejected work.
  RequestLog::OpenResult O = RequestLog::open(Path);
  ASSERT_TRUE(O.Log) << O.Error;
  EXPECT_EQ(O.Log->acceptedCount(), 2u);
  EXPECT_TRUE(O.Log->pending().empty());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Degradation under pressure
//===----------------------------------------------------------------------===//

TEST(ServePressure, MemoEntryCapEvictsOldestEntries) {
  ServeConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MemoEntryCap = 2;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("s", spProgram())).getNumber("code", -1),
            0);
  // Three distinct verdict-producing queries: one must be evicted.
  for (int Steps = 10000; Steps < 10003; ++Steps)
    ASSERT_LE(Core.executeLine("{\"verb\":\"sim\",\"session\":\"s\","
                               "\"max_steps\":" +
                               std::to_string(Steps) + "}")
                  .getNumber("code", -1),
              1);
  Json Stats = Core.statsJson();
  const Json *Press = Stats.get("pressure");
  ASSERT_NE(Press, nullptr);
  EXPECT_EQ(Press->getNumber("memo_evicted", -1), 1) << Press->dump();
}

TEST(ServePressure, HeapWatermarkEvictsIdleSessionsBeforeRejecting) {
  ServeConfig Cfg;
  Cfg.Threads = 1;
  Cfg.HeapBudgetBytes = 1; // any resident session is over budget
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("a", spProgram())).getNumber("code", -1),
            0);
  // Loading b trips the watermark; idle a is evicted, b still loads.
  ASSERT_EQ(Core.executeLine(loadLine("b", spProgram())).getNumber("code", -1),
            0);
  Json OnA = Core.executeLine("{\"verb\":\"sim\",\"session\":\"a\"}");
  EXPECT_EQ(OnA.getNumber("code", -1), 2) << OnA.dump(); // unknown session
  Json OnB = Core.executeLine("{\"verb\":\"sim\",\"session\":\"b\"}");
  EXPECT_EQ(OnB.getNumber("code", -1), 0) << OnB.dump();
  Json Stats = Core.statsJson();
  const Json *Press = Stats.get("pressure");
  ASSERT_NE(Press, nullptr);
  EXPECT_GE(Press->getNumber("sessions_evicted", -1), 1) << Press->dump();
  EXPECT_EQ(Press->getNumber("loads_rejected", -1), 0);
}

TEST(ServePressure, LoadRejectsWithOverloadedWhenOnlyBusySessionsRemain) {
  ServeConfig Cfg;
  Cfg.Threads = 2;
  Cfg.HeapBudgetBytes = 1;
  Cfg.QueueDepth = 64; // admission itself must not interfere here
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("d", divergingProgram()))
                .getNumber("code", -1),
            0);
  // d is mid-request (its mutex is held), so nothing is evictable: the
  // incoming load must bounce with the overloaded shape, not evict it.
  auto Cancel = std::make_shared<CancelToken>();
  auto Blocker = Core.submit(
      "{\"verb\":\"sim\",\"session\":\"d\",\"max_steps\":1000000000}",
      Cancel);
  waitForEngineActive(Core, 1);
  Json R = Core.executeLine(loadLine("e", spProgram()));
  EXPECT_EQ(R.getNumber("code", -1), 3) << R.dump();
  EXPECT_TRUE(R.getBool("overloaded"));
  EXPECT_TRUE(R.getBool("heap_pressure"));
  Cancel->requestCancel();
  Blocker->wait();
  // With d idle again the same load degrades instead of bouncing.
  EXPECT_EQ(Core.executeLine(loadLine("e", spProgram())).getNumber("code", -1),
            0);
  Json Stats = Core.statsJson();
  const Json *Press = Stats.get("pressure");
  ASSERT_NE(Press, nullptr);
  EXPECT_EQ(Press->getNumber("loads_rejected", -1), 1);
}

//===----------------------------------------------------------------------===//
// Client resilience
//===----------------------------------------------------------------------===//

TEST(ServeClientRetry, DelayScheduleIsCappedJitteredAndHonorsHints) {
  RetryOptions RO;
  RO.BackoffBaseMs = 100;
  RO.BackoffCapMs = 2000;
  uint64_t State = 42;
  // Exponential with jitter in [delay/2, delay], deterministic per seed.
  for (unsigned Attempt = 1; Attempt <= 10; ++Attempt) {
    unsigned Full = std::min<unsigned>(100u << (Attempt - 1), 2000);
    unsigned D = retryDelayMs(Attempt, RO, State, /*RetryAfterMs=*/0);
    EXPECT_GE(D, Full / 2) << "attempt " << Attempt;
    EXPECT_LE(D, Full) << "attempt " << Attempt;
  }
  // The server's hint is a floor even when backoff would wait less.
  unsigned Hinted = retryDelayMs(1, RO, State, /*RetryAfterMs=*/5000);
  EXPECT_EQ(Hinted, 5000u);
  // Same seed, same schedule: shed fleets diverge, a single client is
  // reproducible.
  uint64_t A = 7, B = 7;
  EXPECT_EQ(retryDelayMs(3, RO, A, 0), retryDelayMs(3, RO, B, 0));
}

TEST(ServeClientRetry, ReadTimeoutIsSurfacedNotRetried) {
  // A listener that accepts but never answers: the read deadline, not a
  // transport error, ends the request.
  std::string Path = tmpPath("mute");
  std::remove(Path.c_str());
  int Ls = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Ls, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::bind(Ls, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  ASSERT_EQ(::listen(Ls, 4), 0);

  ClientOptions CO;
  CO.ReadTimeoutMs = 100;
  std::string Err, Resp;
  auto Client = ServeClient::connect(Path, Err, CO);
  ASSERT_TRUE(Client) << Err;
  EXPECT_FALSE(Client->request("{\"verb\":\"ping\"}", Resp, Err));
  EXPECT_TRUE(Client->timedOut()) << Err;
  EXPECT_NE(Err.find("timed out"), std::string::npos) << Err;

  // ResilientClient must not re-send after a timeout (the request may
  // still be running server-side).
  RetryOptions RO;
  RO.MaxAttempts = 5;
  ResilientClient RC(Path, CO, RO);
  EXPECT_FALSE(RC.request("{\"verb\":\"ping\"}", Resp, Err));
  EXPECT_TRUE(RC.timedOut());
  EXPECT_EQ(RC.retries(), 0u);
  ::close(Ls);
  std::remove(Path.c_str());
}

TEST(ServeClientRetry, GivesUpAfterMaxAttemptsOnConnectFailure) {
  RetryOptions RO;
  RO.MaxAttempts = 2;
  RO.BackoffBaseMs = 1;
  ClientOptions CO;
  CO.ConnectTimeoutMs = 100;
  ResilientClient RC(tmpPath("nosuchsock"), CO, RO);
  std::string Resp, Err;
  EXPECT_FALSE(RC.request("{\"verb\":\"ping\"}", Resp, Err));
  EXPECT_EQ(RC.retries(), 1u);
  EXPECT_NE(Err.find("gave up after 2 attempts"), std::string::npos) << Err;
}

TEST(ServeClientRetry, RetriesOverloadedUntilCapacityReturns) {
  ServeConfig Cfg;
  Cfg.Threads = 2;
  Cfg.MaxInflight = 1;
  Cfg.QueueDepth = 0;
  auto Res = ServeCore::create(Cfg);
  ASSERT_TRUE(Res.Core) << Res.Error;
  ServeCore &Core = *Res.Core;
  ASSERT_EQ(Core.executeLine(loadLine("d", divergingProgram()))
                .getNumber("code", -1),
            0);
  // The blocker self-trips on its deadline, so the shed request's
  // retries eventually find capacity.
  auto Blocker = Core.submit("{\"verb\":\"sim\",\"session\":\"d\","
                             "\"deadline_ms\":400}");
  waitForEngineActive(Core, 1);

  // Drive ResilientClient's classification directly through the core
  // (no socket needed): first attempt sheds, a later one succeeds.
  RetryOptions RO;
  RO.MaxAttempts = 20;
  RO.BackoffBaseMs = 50;
  RO.BackoffCapMs = 200;
  uint64_t Jitter = RO.JitterSeed;
  unsigned Attempts = 0;
  Json R;
  for (;; ++Attempts) {
    ASSERT_LT(Attempts, 20u);
    R = Core.submit("{\"verb\":\"sim\",\"session\":\"d\",\"max_steps\":10}")
            ->wait();
    if (!R.getBool("overloaded"))
      break;
    unsigned Hint =
        static_cast<unsigned>(R.getNumber("retry_after_ms", 0));
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min(retryDelayMs(Attempts + 1, RO, Jitter, Hint), 300u)));
  }
  EXPECT_GE(Attempts, 1u); // it was actually shed at least once
  EXPECT_EQ(R.getString("outcome_status"), "step-budget-exceeded");
  EXPECT_EQ(Blocker->wait().getString("outcome_status"),
            "deadline-exceeded");
}

//===----------------------------------------------------------------------===//
// Connection hygiene
//===----------------------------------------------------------------------===//

namespace {

/// Reads one newline-terminated line from a raw fd with a deadline.
bool readRawLine(int Fd, std::string &Out, unsigned DeadlineMs) {
  Out.clear();
  auto End = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(DeadlineMs);
  char C;
  for (;;) {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    End - std::chrono::steady_clock::now())
                    .count();
    if (Left <= 0)
      return false;
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, static_cast<int>(Left)) <= 0)
      continue;
    ssize_t N = ::recv(Fd, &C, 1, 0);
    if (N <= 0)
      return false;
    if (C == '\n')
      return true;
    Out += C;
  }
}

} // namespace

TEST(ServeHygiene, OversizedRequestLineGetsErrorAndClose) {
  Server::Options Opts;
  Opts.SocketPath = tmpPath("bigline");
  Opts.Core.Threads = 2;
  Opts.MaxLineBytes = 1024;
  Server::CreateResult Res = Server::create(Opts);
  ASSERT_TRUE(Res.Srv) << Res.Error;
  std::thread Runner([&] { Res.Srv->run(nullptr); });

  std::string Err;
  auto Client = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client) << Err;
  // 8 KiB with no newline: the server must cut in, not buffer forever.
  std::string Big(8192, 'x');
  ASSERT_EQ(::send(Client->fd(), Big.data(), Big.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Big.size()));
  std::string Line;
  ASSERT_TRUE(readRawLine(Client->fd(), Line, 5000));
  Json R;
  ASSERT_TRUE(Json::parse(Line, R, Err)) << Line;
  EXPECT_EQ(R.getNumber("code", -1), 2) << Line;
  EXPECT_NE(R.getString("error").find("exceeds"), std::string::npos);
  // And the connection is torn down, not left leaking. Closing with our
  // unconsumed bytes still queued makes the kernel send RST, so a reset
  // is as valid an end as a clean EOF here.
  char C;
  ssize_t N = ::recv(Client->fd(), &C, 1, 0);
  EXPECT_TRUE(N == 0 || (N < 0 && errno == ECONNRESET)) << N << " " << errno;

  std::string Resp;
  auto Client2 = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client2) << Err;
  ASSERT_TRUE(Client2->request("{\"verb\":\"shutdown\"}", Resp, Err)) << Err;
  Runner.join();
}

TEST(ServeHygiene, IdleConnectionIsReapedWithErrorLine) {
  Server::Options Opts;
  Opts.SocketPath = tmpPath("idleconn");
  Opts.Core.Threads = 2;
  Opts.IdleTimeoutMs = 150;
  Server::CreateResult Res = Server::create(Opts);
  ASSERT_TRUE(Res.Srv) << Res.Error;
  std::thread Runner([&] { Res.Srv->run(nullptr); });

  std::string Err;
  auto Client = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client) << Err;
  // Say nothing: the server must reap us, with a parting explanation.
  std::string Line;
  ASSERT_TRUE(readRawLine(Client->fd(), Line, 5000));
  Json R;
  ASSERT_TRUE(Json::parse(Line, R, Err)) << Line;
  EXPECT_EQ(R.getNumber("code", -1), 3) << Line;
  EXPECT_TRUE(R.getBool("idle_timeout"));
  char C;
  EXPECT_EQ(::recv(Client->fd(), &C, 1, 0), 0);

  // An active client with traffic inside the window is not reaped.
  std::string Resp;
  auto Client2 = ServeClient::connect(Opts.SocketPath, Err);
  ASSERT_TRUE(Client2) << Err;
  for (int I = 0; I < 3; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(Client2->request("{\"verb\":\"ping\"}", Resp, Err)) << Err;
  }
  ASSERT_TRUE(Client2->request("{\"verb\":\"shutdown\"}", Resp, Err)) << Err;
  Runner.join();
}

//===----------------------------------------------------------------------===//
// Supervisor
//===----------------------------------------------------------------------===//

TEST(ServeSupervisor, BackoffScheduleIsExponentialCappedAndResets) {
  EXPECT_EQ(nextRestartDelayMs(0, 100, 5000), 0u);
  EXPECT_EQ(nextRestartDelayMs(1, 100, 5000), 100u);
  EXPECT_EQ(nextRestartDelayMs(2, 100, 5000), 200u);
  EXPECT_EQ(nextRestartDelayMs(6, 100, 5000), 3200u);
  EXPECT_EQ(nextRestartDelayMs(7, 100, 5000), 5000u);  // capped
  EXPECT_EQ(nextRestartDelayMs(100, 100, 5000), 5000u); // no overflow
  EXPECT_EQ(nextRestartDelayMs(3, 0, 5000), 4u);        // base clamped to 1
}

TEST(ServeSupervisor, RestartsAbnormalExitsUntilDeliberateExit) {
  SupervisorOptions Opts;
  Opts.BackoffBaseMs = 1;
  Opts.BackoffCapMs = 4;
  // Generations 0 and 1 "crash" (resource exit); generation 2 exits
  // cleanly — the supervisor must restart through the crashes and then
  // return the deliberate code.
  int Code = superviseLoop(
      [](uint64_t Gen) { return Gen < 2 ? 3 : 0; }, Opts);
  EXPECT_EQ(Code, 0);
}

TEST(ServeSupervisor, RestartBudgetBoundsCrashLoops) {
  SupervisorOptions Opts;
  Opts.BackoffBaseMs = 1;
  Opts.BackoffCapMs = 2;
  Opts.MaxRestarts = 2;
  int Code = superviseLoop([](uint64_t) { return 4; }, Opts);
  EXPECT_EQ(Code, 3);
}

TEST(ServeServer, ReclaimsStaleSocketRefusesLiveOne) {
  std::string Path = tmpPath("stale");
  std::remove(Path.c_str());
  // A stale socket file: bound by a "crashed" daemon that never unlinked.
  {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0)
        << strerror(errno);
    ::close(Fd); // closed, not unlinked: the file is now stale
  }
  Server::Options Opts;
  Opts.SocketPath = Path;
  Opts.Core.Threads = 1;
  Server::CreateResult First = Server::create(Opts);
  ASSERT_TRUE(First.Srv) << First.Error; // stale file reclaimed
  // While one daemon holds the socket, a second must refuse it.
  Server::CreateResult Second = Server::create(Opts);
  EXPECT_FALSE(Second.Srv);
  EXPECT_NE(Second.Error.find("already serving"), std::string::npos)
      << Second.Error;
}
