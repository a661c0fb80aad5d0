// End-to-end tests of the mecsc_serve daemon binary: boot-to-exit runs,
// the --verify replay gate, graceful SIGINT/SIGTERM shutdown (drained
// slot, sealed trace, exit 0), and the stdin/stdout JSON query loop.
// The binary path comes from the MECSC_SERVE_BIN compile definition
// ($<TARGET_FILE:mecsc_serve_daemon>).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/trace_io.h"

namespace {

std::string daemon_bin() { return MECSC_SERVE_BIN; }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mecsc_daemon_" + name;
}

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ServeDaemon, PacedRunSealsTraceAndDumpsPrometheus) {
  const std::string trace = temp_path("run.trace");
  const std::string prom = temp_path("run.prom");
  const std::string cmd = daemon_bin() +
                          " --stations 15 --requests 40 --services 4"
                          " --slots 6 --seed 9 --paced --trace-out " +
                          trace + " --prom-out " + prom + " 2>/dev/null";
  ASSERT_EQ(run_command(cmd), 0);

  std::size_t slots = 0;
  EXPECT_TRUE(mecsc::serve::trace_well_formed(trace, &slots));
  EXPECT_EQ(slots, 6u);

  const std::string exposition = read_file(prom);
  EXPECT_NE(exposition.find("serve_slots"), std::string::npos);
  EXPECT_NE(exposition.find("serve_ingest_rate_rps"), std::string::npos);
  EXPECT_NE(exposition.find("serve_queue_depth"), std::string::npos);
  EXPECT_NE(exposition.find("serve_slot_deadline_margin_ms"), std::string::npos);
  EXPECT_NE(exposition.find("serve_shed_fraction"), std::string::npos);
  EXPECT_NE(exposition.find("serve_decide_ms"), std::string::npos);

  // The recorded trace replays bit-for-bit through --verify.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace + " 2>/dev/null"),
            0);
  std::remove(trace.c_str());
  std::remove(prom.c_str());
}

TEST(ServeDaemon, VerifyRejectsMissingTrace) {
  EXPECT_NE(run_command(daemon_bin() + " --verify " + temp_path("absent.trace") +
                        " 2>/dev/null"),
            0);
}

// The graceful-shutdown satellite: a SIGTERM mid-run drains the slot in
// flight, seals the trace (footer present) and exits 0.
TEST(ServeDaemon, SigtermDrainsSealsTraceExitsZero) {
  const std::string trace = temp_path("sigterm.trace");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Long wall-clock run the parent will interrupt.
    execl(daemon_bin().c_str(), "mecsc_serve", "--stations", "12", "--requests",
          "30", "--services", "3", "--slots", "100000", "--slot-ms", "20",
          "--seed", "5", "--trace-out", trace.c_str(), (char*)nullptr);
    _exit(127);
  }
  // Let it commit a few slots before interrupting.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::size_t slots = 0;
  EXPECT_TRUE(mecsc::serve::trace_well_formed(trace, &slots));
  EXPECT_GE(slots, 1u);
  EXPECT_LT(slots, 100000u);
  // The partial trace still replays bit-for-bit.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace + " 2>/dev/null"),
            0);
  std::remove(trace.c_str());
}

// The start-up window, pinned without a sleep: the daemon is exec'd with
// SIGTERM blocked and already pending, so the signal lands exactly when
// main() unblocks it, after the handlers are installed and before the
// --slots 100000 service is built. The run still serves one slot, seals
// its trace and exits 0.
TEST(ServeDaemon, SigtermPendingAtExecServesOneSlotExitsZero) {
  const std::string trace = temp_path("pending.trace");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    sigset_t term;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    sigprocmask(SIG_BLOCK, &term, nullptr);
    kill(getpid(), SIGTERM);
    execl(daemon_bin().c_str(), "mecsc_serve", "--stations", "12", "--requests",
          "30", "--services", "3", "--slots", "100000", "--slot-ms", "20",
          "--seed", "5", "--trace-out", trace.c_str(), (char*)nullptr);
    _exit(127);
  }
  // A daemon that never sees the signal would run for 2000 s; give up
  // long before that.
  int status = 0;
  pid_t waited = 0;
  for (int i = 0; i < 1200 && waited == 0; ++i) {
    waited = waitpid(pid, &status, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (waited == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "daemon ignored the SIGTERM pending at exec";
  }
  ASSERT_EQ(waited, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::size_t slots = 0;
  EXPECT_TRUE(mecsc::serve::trace_well_formed(trace, &slots));
  EXPECT_EQ(slots, 1u);
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace + " 2>/dev/null"),
            0);
  std::remove(trace.c_str());
}

TEST(ServeDaemon, AnswersQueriesOverStdinStdout) {
  const std::string out_path = temp_path("queries.out");
  // Feed the queries after a short delay so the pipeline has committed
  // slots to answer from; stdout carries only the JSON responses.
  const std::string cmd =
      "( sleep 0.4; printf '{\"q\":\"stats\"}\\n{\"q\":\"request\",\"id\":2}\\n"
      "{\"q\":\"service\",\"id\":0}\\n' ) | " +
      daemon_bin() +
      " --stations 12 --requests 30 --services 3 --slots 40 --slot-ms 30"
      " --seed 3 --queries > " +
      out_path + " 2>/dev/null";
  ASSERT_EQ(run_command(cmd), 0);
  const std::string out = read_file(out_path);
  EXPECT_NE(out.find("\"q\":\"stats\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"q\":\"request\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"station\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"q\":\"service\""), std::string::npos) << out;
  EXPECT_EQ(out.find("error"), std::string::npos) << out;
  std::remove(out_path.c_str());
}

TEST(ServeDaemon, RejectsUnknownFlags) {
  EXPECT_EQ(run_command(daemon_bin() + " --no-such-flag 2>/dev/null"), 2);
}

}  // namespace
