// The tuner daemon: ask/tell tuning as a multi-client TCP service.  The
// acceptance contract is bit-identity with the single-process sweep —
// concurrent clients, a client dropped mid-claim, a daemon killed outright
// (kill -9) and restarted on its state directory, and a SIGTERM'd daemon
// resumed later must all select the same configuration with the same
// statistics as tune::run_study().
//
// This binary is its own daemon: the subprocess scenarios re-exec it with
// --tuner-daemon, so main() routes that entry point before gtest.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "tune/tuner.hpp"
#include "util/hash.hpp"

namespace core = critter::core;
namespace net = critter::net;
namespace serve = critter::serve;
namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study small_study(int nconfigs = 10) {
  tune::Study study = tune::capital_cholesky_study(false);
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

/// Outcome-dependent asks (early discard against the running incumbent):
/// if a remote evaluation differed from the local one by even a bit, the
/// strategy's proposals — and therefore the tell count and the selection —
/// would diverge, so these options make the bit-identity checks sharp.
tune::TuneOptions adaptive_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  opt.strategy = "ci-discard";
  return opt;
}

serve::ClientOptions client_options(int port) {
  serve::ClientOptions copt;
  copt.port = port;
  return copt;
}

/// The daemon's answer must equal the single-process sweep's: same
/// selected configuration, same shared statistics (same_statistics — the
/// statistical-equality contract every executor in this codebase meets;
/// per-epoch scratch counters are dead state and excluded by design).
void expect_matches_in_process(serve::TunerClient& client,
                               const tune::TuneResult& ref,
                               const std::string& what) {
  const serve::StatusReply st = client.status();
  EXPECT_TRUE(st.done) << what << ": " << st.text;
  EXPECT_EQ(st.best_predicted, ref.best_predicted()) << what << ": "
                                                     << st.text;
  EXPECT_EQ(st.evaluated, ref.evaluated_configs) << what << ": " << st.text;
  const std::string exported = client.export_stats();
  ASSERT_FALSE(exported.empty()) << what;
  const core::StatSnapshot stats = core::StatSnapshot::from_string(exported);
  EXPECT_TRUE(stats.same_statistics(ref.stats)) << what << " statistics";
}

/// Re-exec this test binary as a daemon subprocess (the kill -9 and
/// SIGTERM scenarios need a process to kill, not an in-process object).
pid_t spawn_daemon(const std::string& state_dir) {
  // A restarted daemon binds a fresh ephemeral port; drop the old port
  // file so read_daemon_port cannot rendezvous with the dead instance.
  ::remove((state_dir + "/port").c_str());
  const std::string sd = "--state-dir=" + state_dir;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/proc/self/exe", "test_serve", "--tuner-daemon", sd.c_str(),
            "--port=0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Raw framed request without opening a session (tunectl's sessionless
/// path) — lets tests poke the protocol below the TunerClient surface.
net::Frame raw_request(int port, std::uint32_t verb,
                       const std::string& payload) {
  net::Connection conn = net::Connection::connect("127.0.0.1", port, 5.0);
  net::send_frame(conn, net::kHello, serve::kTuneService, 5.0);
  const net::Frame hello = net::recv_frame(conn, 5.0);
  EXPECT_EQ(hello.verb, net::kOk);
  net::send_frame(conn, verb, payload, 5.0);
  return net::recv_frame(conn, 5.0);
}

struct TempDir {
  explicit TempDir(const char* prefix) : path(core::make_temp_dir(prefix)) {}
  ~TempDir() { core::remove_dir_tree(path); }
  std::string path;
};

}  // namespace

// ---------------------------------------------------------------------------
// In-process daemon scenarios
// ---------------------------------------------------------------------------

TEST(Daemon, SingleClientReproducesTheInProcessSweep) {
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_single");
  serve::TunerDaemon daemon({dir.path});
  serve::TunerClient client(study, opt, "solo",
                            client_options(daemon.port()));
  const serve::ClientReport rep = client.run();
  EXPECT_TRUE(rep.done);
  EXPECT_GT(rep.tells, 0);
  EXPECT_EQ(rep.reconnects, 0);
  expect_matches_in_process(client, ref, "single client");
}

TEST(Daemon, TwoConcurrentClientsReproduceTheInProcessSweep) {
  // The flagship concurrency contract: one claim outstanding at a time,
  // every claim evaluated by whichever client holds it, and the interleaving
  // — whatever the scheduler picks — must not be observable in the result.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_pair");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientReport reps[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([&, i] {
      serve::TunerClient c(study, opt, "pair", client_options(daemon.port()));
      reps[i] = c.run();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(reps[0].done);
  EXPECT_TRUE(reps[1].done);

  serve::TunerClient check(study, opt, "pair", client_options(daemon.port()));
  const serve::StatusReply st = check.status();
  // Every tell came from exactly one of the two clients.
  EXPECT_EQ(reps[0].tells + reps[1].tells, st.tells);
  expect_matches_in_process(check, ref, "two concurrent clients");
}

TEST(Daemon, DroppedClientsClaimReissuesWithoutChangingTheAnswer) {
  // Injected churn: the first client walks away holding a claim.  The
  // daemon must re-issue that exact batch to the survivor (nothing can
  // have changed while it was out), so the sweep finishes bit-identically.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_churn");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions drop = client_options(daemon.port());
  drop.drop_after_asks = 1;
  serve::TunerClient dropper(study, opt, "churn", drop);
  const serve::ClientReport drep = dropper.run();
  EXPECT_TRUE(drep.dropped);
  EXPECT_EQ(drep.tells, 0);  // left with the first claim open

  serve::TunerClient survivor(study, opt, "churn",
                              client_options(daemon.port()));
  const serve::ClientReport srep = survivor.run();
  EXPECT_TRUE(srep.done);
  expect_matches_in_process(survivor, ref, "claim re-issued after drop");
}

TEST(Daemon, JoiningWithADifferentIdentityIsRejected) {
  // Concurrent clients must agree on what they are tuning; a mismatched
  // (study, options) join is an error, not a second session.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_identity");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions copt = client_options(daemon.port());
  copt.max_batches = 1;
  serve::TunerClient first(study, opt, "shared", copt);
  first.run();

  tune::TuneOptions other = opt;
  other.tolerance = opt.tolerance * 2;
  serve::ClientOptions strict = client_options(daemon.port());
  strict.max_reconnects = 0;  // surface the open error, don't retry it
  serve::TunerClient second(study, other, "shared", strict);
  try {
    second.run();
    FAIL() << "mismatched session identity was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different study/options identity"),
              std::string::npos)
        << e.what();
  }
}

TEST(Daemon, SessionlessVerbsAndUnknownSessionsError) {
  TempDir dir("critter_serve_raw");
  serve::TunerDaemon daemon({dir.path});
  const net::Frame st = raw_request(daemon.port(), net::kTuneStatus,
                                    serve::encode_session_ref("nope"));
  EXPECT_EQ(st.verb, net::kErr);
  EXPECT_NE(st.payload.find("unknown tuning session"), std::string::npos);
  // A client-initiated shutdown stops the daemon (tunectl's path).
  const net::Frame sd = raw_request(daemon.port(), net::kTuneShutdown, "");
  EXPECT_EQ(sd.verb, net::kOk);
  const double deadline = core::monotonic_s() + 5.0;
  while (!daemon.stopping() && core::monotonic_s() < deadline)
    core::sleep_ms(10);
  EXPECT_TRUE(daemon.stopping());
}

TEST(Daemon, SparseTransportIsDefaultAndByteEquivalent) {
  // Dirty-rank transport (DESIGN.md §13) is on by default: after the first
  // full payload, every state-bearing TELL ships a sparse patch, and the
  // daemon's spliced state cache must be byte-equivalent to what full
  // transport would have produced.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_sparse");
  serve::TunerDaemon daemon({dir.path});
  serve::TunerClient client(study, opt, "sparse",
                            client_options(daemon.port()));
  const serve::ClientReport rep = client.run();
  EXPECT_TRUE(rep.done);

  const serve::StatusReply st = client.status();
  EXPECT_GT(st.sparse_tells, 0) << st.text;
  // Wire accounting travels in the status reply and its text.
  EXPECT_GT(st.bytes_in, 0);
  EXPECT_GT(st.bytes_out, 0);
  EXPECT_NE(st.text.find("sparse tells"), std::string::npos) << st.text;

  // The byte-equivalence pin: the exported state was grown exclusively by
  // splicing patches, yet it must be the canonical serialization of the
  // statistics it decodes to — splicing may never bend a byte.
  const std::string exported = client.export_stats();
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(core::StatSnapshot::from_string(exported).to_string(), exported);
  // And the patches actually beat full transport on the wire: the total
  // inbound traffic stays under the ship-the-full-state-every-tell bound.
  EXPECT_LT(st.bytes_in,
            st.tells * static_cast<std::int64_t>(exported.size()));
  expect_matches_in_process(client, ref, "sparse transport");
}

TEST(Daemon, JournalAppendsSparseRecordsBetweenFullSlots) {
  // Mid-stride durability: tell 1 publishes a full checkpoint slot; tells
  // 2..N (N < the full-slot period) append sparse records to the journal
  // instead of rewriting the snapshot.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_journal");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions partial = client_options(daemon.port());
  partial.max_batches = 3;
  serve::TunerClient client(study, opt, "journal", partial);
  EXPECT_EQ(client.run().tells, 3);

  const std::string sdir = dir.path + "/sessions/journal";
  EXPECT_TRUE(core::published(sdir, "ckpt_a.bin") ||
              core::published(sdir, "ckpt_b.bin"));
  EXPECT_TRUE(core::file_exists(sdir + "/ckpt_log.bin"));
}

TEST(Daemon, MalformedPatchChunkIsRejectedWithoutTouchingTheSession) {
  // The daemon never decodes the statistics it holds, so a patch chunk
  // whose checksum is right but whose body is not a rank table must be
  // caught by apply_sparse_patch's structural check — rejected by name,
  // before any state changes.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);
  TempDir dir("critter_serve_malformed");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions partial = client_options(daemon.port());
  partial.max_batches = 2;
  serve::TunerClient warmup(study, opt, "bad", partial);
  ASSERT_EQ(warmup.run().tells, 2);

  // One connection claims a batch and tells it with the forged patch.
  net::Connection conn =
      net::Connection::connect("127.0.0.1", daemon.port(), 5.0);
  const auto call = [&conn](std::uint32_t verb, const std::string& payload) {
    net::send_frame(conn, verb, payload, 5.0);
    return net::recv_frame(conn, 5.0);
  };
  ASSERT_EQ(call(net::kHello, serve::kTuneService).verb, net::kOk);
  const auto ask = [&](std::uint64_t have_gen) {
    const net::Frame f = call(net::kTuneAsk,
                              serve::encode_ask_request({"bad", have_gen}));
    EXPECT_EQ(f.verb, net::kOk) << f.payload;
    return serve::decode_ask_reply(f.payload);
  };
  const serve::AskReply ar = ask(0);
  ASSERT_FALSE(ar.done);
  ASSERT_FALSE(ar.state.empty());
  const int nranks = core::StatSnapshot::from_string(ar.state).nranks();

  // Rank 0's chunk: an epoch, then a kernel count far beyond the bytes
  // that follow (six zero counts), under a correct FNV-1a chunk checksum.
  std::string body(8 + 6 * 8, '\0');
  const std::uint64_t kernels = 1000;
  std::memcpy(body.data() + 8, &kernels, 8);
  core::WireWriter pw;
  pw.raw("CRSPRS1\n", 8);
  pw.u32(core::StatSnapshot::current_version());
  pw.u32(static_cast<std::uint32_t>(nranks));
  pw.u8(0);  // mode 0: patch against the session state
  for (int r = 0; r < nranks; ++r) pw.i64(0);
  pw.u32(1);  // one dirty rank
  pw.u32(0);
  pw.u64(body.size());
  pw.u64(critter::util::fnv1a(body.data(), body.size()));
  pw.raw(body.data(), body.size());

  serve::TellRequest trq;
  trq.session = "bad";
  trq.base_gen = ar.state_gen;
  trq.batch = ar.batch;
  for (int pos : ar.batch) {
    tune::ConfigOutcome oc;
    oc.config = study.configs[static_cast<std::size_t>(pos)];
    trq.outcomes.push_back(oc);
    trq.totals.emplace_back();
  }
  trq.state = pw.out;
  const net::Frame rp = call(net::kTuneTell, serve::encode_tell(trq));
  EXPECT_EQ(rp.verb, net::kErr);
  EXPECT_NE(rp.payload.find("declares more kernel records than it holds"),
            std::string::npos)
      << rp.payload;

  // Nothing moved: the claim re-issues at the same generation (state mode
  // 0 — no bytes shipped), and EXPORT returns the bytes ASK shipped.
  const serve::AskReply again = ask(ar.state_gen);
  EXPECT_EQ(again.state_gen, ar.state_gen);
  EXPECT_EQ(again.state_mode, 0);
  EXPECT_EQ(again.batch, ar.batch);
  const net::Frame ex =
      call(net::kTuneExport, serve::encode_session_ref("bad"));
  EXPECT_EQ(ex.payload, ar.state);
  conn.close();

  // And the session still finishes exactly like the in-process sweep.
  serve::TunerClient finisher(study, opt, "bad",
                              client_options(daemon.port()));
  EXPECT_TRUE(finisher.run().done);
  expect_matches_in_process(finisher, ref, "after a rejected patch");
}

// ---------------------------------------------------------------------------
// Protocol decoders: truncation and forged lengths
// ---------------------------------------------------------------------------

namespace {

/// A real serialized snapshot, so the blob fields carry what they carry in
/// production (the decoders do not parse them).
std::string snapshot_bytes(int nranks) {
  core::StatSnapshot snap;
  snap.ranks.resize(static_cast<std::size_t>(nranks));
  for (core::KernelTable& t : snap.ranks) t.init_world(nranks);
  return snap.to_string();
}

serve::TellRequest tell_request(const tune::Study& study) {
  serve::TellRequest rq;
  rq.session = "fuzz";
  rq.base_gen = 7;
  for (int pos : {1, 3}) {
    rq.batch.push_back(pos);
    tune::ConfigOutcome oc;
    oc.config = study.configs[static_cast<std::size_t>(pos)];
    oc.true_time = 0.5 * pos;
    oc.evaluated = true;
    rq.outcomes.push_back(oc);
    rq.totals.emplace_back();
  }
  rq.state = snapshot_bytes(2);
  return rq;
}

void decode_tell(const std::string& payload, const tune::Study& study) {
  core::WireReader r{payload};
  serve::TellRequest rq;
  rq.session = serve::decode_tell_session(r);
  serve::decode_tell_body(r, study, &rq);
}

}  // namespace

TEST(ServeProtocol, EveryOpenAndTellTruncationIsRejected) {
  const tune::Study study = small_study();
  const std::string open = serve::encode_open(
      {"fuzz", "manifest", snapshot_bytes(2), snapshot_bytes(3)});
  const serve::OpenRequest back = serve::decode_open(open);
  EXPECT_EQ(back.warm, snapshot_bytes(2));
  EXPECT_EQ(back.prior, snapshot_bytes(3));
  for (std::size_t len = 0; len < open.size(); ++len)
    EXPECT_THROW(serve::decode_open(open.substr(0, len)), std::runtime_error)
        << "open truncated at byte " << len << " decoded";

  const std::string tell = serve::encode_tell(tell_request(study));
  EXPECT_NO_THROW(decode_tell(tell, study));
  for (std::size_t len = 0; len < tell.size(); ++len)
    EXPECT_THROW(decode_tell(tell.substr(0, len), study), std::runtime_error)
        << "tell truncated at byte " << len << " decoded";
}

TEST(ServeProtocol, ForgedLengthsAreRefusedBeforeAllocating) {
  // A length field declaring 2 GiB that the payload does not hold must be
  // refused by the bounds check before anything is allocated (the sanitizer
  // job caps single allocations at 1 GiB, so an allocation would abort it),
  // and so must a batch count the payload cannot hold.
  const auto expect_error = [](const auto& decode, const char* what,
                               const char* error) {
    try {
      decode();
      ADD_FAILURE() << what << ": forged length accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
          << what << ": " << e.what();
    }
  };
  core::WireWriter open;
  open.str("s");
  open.str("m");
  open.i32(0x7fffffff);  // the warm snapshot's length, nothing behind it
  expect_error([&] { serve::decode_open(open.out); }, "open", "truncated");

  const tune::Study study = small_study();
  serve::TellRequest rq = tell_request(study);
  rq.state.clear();
  std::string tell = serve::encode_tell(rq);
  const std::int32_t forged = 0x7fffffff;
  std::memcpy(tell.data() + tell.size() - 4, &forged, 4);  // the state length
  expect_error([&] { decode_tell(tell, study); }, "tell state", "truncated");

  core::WireWriter batch;
  batch.str("fuzz");
  batch.u64(0);
  batch.i32(1 << 20);  // batch size, no positions behind it
  expect_error([&] { decode_tell(batch.out, study); }, "tell batch",
               "implausible batch");
}

// ---------------------------------------------------------------------------
// Daemon-as-a-process scenarios: kill -9 resume, SIGTERM flush
// ---------------------------------------------------------------------------

TEST(DaemonProcess, KillNineMidSessionResumesBitIdentically) {
  // The durability contract: every tell is journaled before it is
  // acknowledged, so a daemon killed outright and restarted on the same
  // state directory replays the session into the exact state it held —
  // clients pick up mid-sweep and the final answer matches run_study().
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_kill9");
  pid_t pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  int port = serve::read_daemon_port(dir.path);
  serve::ClientOptions partial = client_options(port);
  partial.max_batches = 4;
  serve::TunerClient before(study, opt, "durable", partial);
  const serve::ClientReport prep = before.run();
  EXPECT_EQ(prep.tells, 4);

  ::kill(pid, SIGKILL);
  wait_for_exit(pid);

  pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  port = serve::read_daemon_port(dir.path);
  serve::TunerClient after(study, opt, "durable", client_options(port));
  const serve::ClientReport rep = after.run();
  EXPECT_TRUE(rep.done);
  const serve::StatusReply st = after.status();
  // The resumed session kept the pre-kill tells instead of resweeping.
  EXPECT_EQ(st.tells, prep.tells + rep.tells);
  expect_matches_in_process(after, ref, "kill -9 resume");

  const net::Frame sd = raw_request(port, net::kTuneShutdown, "");
  EXPECT_EQ(sd.verb, net::kOk);
  const int status = wait_for_exit(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(DaemonProcess, SigtermFlushesEverySessionThenResumesFromTheSnapshot) {
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_sigterm");
  pid_t pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  int port = serve::read_daemon_port(dir.path);
  serve::ClientOptions partial = client_options(port);
  partial.max_batches = 3;
  serve::TunerClient before(study, opt, "graceful", partial);
  EXPECT_EQ(before.run().tells, 3);

  ::kill(pid, SIGTERM);
  const int status = wait_for_exit(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The graceful-shutdown contract: a final self-contained full checkpoint
  // per session, with no increment log left to replay.
  const std::string sdir = dir.path + "/sessions/graceful";
  EXPECT_TRUE(core::published(sdir, "ckpt_a.bin") ||
              core::published(sdir, "ckpt_b.bin"));
  EXPECT_FALSE(core::file_exists(sdir + "/ckpt_log.bin"));

  pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  port = serve::read_daemon_port(dir.path);
  serve::TunerClient after(study, opt, "graceful", client_options(port));
  EXPECT_TRUE(after.run().done);
  expect_matches_in_process(after, ref, "SIGTERM flush + resume");

  raw_request(port, net::kTuneShutdown, "");
  wait_for_exit(pid);
}

int run_gtest(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

int main(int argc, char** argv) {
  if (serve::is_tuner_daemon(argc, argv))
    return serve::tuner_daemon_main(argc, argv);
  return run_gtest(argc, argv);
}
