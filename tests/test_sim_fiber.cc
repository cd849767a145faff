// Fiber stack pool (DESIGN.md §11): every thread keeps the guard-paged
// stacks of its finished fibers and hands them to the next run, so a
// simulated run maps stacks only when it needs more than the thread has
// ever had live at once.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/api.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace sim = critter::sim;
namespace obs = critter::obs;

namespace {

std::uint64_t stacks_mapped() {
  return obs::counter("sim.fiber_stacks_mapped").value();
}
std::uint64_t stacks_reused() {
  return obs::counter("sim.fiber_stacks_reused").value();
}

/// One run of an allreduce over `nranks` ranks with skewed arrival times;
/// checks the reduced value and returns the run's virtual makespan.
double run_allreduce(sim::Engine& eng) {
  const int n = eng.nranks();
  double sum = 0.0;
  eng.run([&](sim::RankCtx& ctx) {
    sim::advance(1e-6 * (ctx.rank % 5));
    double x = ctx.rank + 1.0;
    double y = 0.0;
    sim::allreduce(&x, &y, sizeof x, sim::reduce_sum_double(), sim::world());
    if (ctx.rank == 0) sum = y;
  });
  EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
  return eng.max_time();
}

double run_allreduce(int nranks, std::uint64_t seed) {
  sim::Engine eng(nranks, sim::Machine::knl_like(), seed);
  return run_allreduce(eng);
}

/// Recurses until the stack runs out; the volatile frame buffer keeps each
/// call's frame real and stops the compiler turning it into a loop.
volatile int g_never = -1;
int recurse_forever(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == g_never) return 0;
  return recurse_forever(depth + 1) + frame[0];
}

#if defined(__SANITIZE_ADDRESS__)
#define CRITTER_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRITTER_TEST_ASAN 1
#endif
#endif

#if !defined(CRITTER_TEST_ASAN)
constexpr int kGuardPageFault = 42;
constexpr int kFaultElsewhere = 43;
volatile std::intptr_t g_fiber_top = 0;  ///< a local in the fiber's first frame
volatile std::intptr_t g_page = 0;

/// SIGSEGV handler (on an alternate stack): did the overflow fault in the
/// guard page, the lowest page of the 512 KiB + guard mapping, rather than
/// run on into whatever lies below it?
void exit_by_fault_site(int, siginfo_t* info, void*) {
  const std::intptr_t depth =
      g_fiber_top - reinterpret_cast<std::intptr_t>(info->si_addr);
  const bool guard =
      depth > 512 * 1024 - g_page && depth <= 512 * 1024 + g_page;
  _exit(guard ? kGuardPageFault : kFaultElsewhere);
}

void overflow_with_fault_probe(sim::Fiber& f) {
  g_page = sysconf(_SC_PAGESIZE);
  static char alt[1 << 16];
  stack_t ss{};
  ss.ss_sp = alt;
  ss.ss_size = sizeof alt;
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = exit_by_fault_site;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  f.resume();
}
#endif

}  // namespace

TEST(FiberStackPool, RepeatedRunsMapAtMostOneStackPerRank) {
  const std::uint64_t mapped0 = stacks_mapped();
  const std::uint64_t reused0 = stacks_reused();
  constexpr int kRuns = 50;
  constexpr int kRanks = 64;
  const double first = run_allreduce(kRanks, 7);
  for (int i = 1; i < kRuns; ++i) EXPECT_EQ(run_allreduce(kRanks, 7), first);

  const std::uint64_t mapped = stacks_mapped() - mapped0;
  EXPECT_LE(mapped, static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(mapped + stacks_reused() - reused0,
            static_cast<std::uint64_t>(kRuns * kRanks));
  EXPECT_GE(sim::Fiber::pooled_stacks(), static_cast<std::size_t>(kRanks));
}

TEST(FiberStackPool, ConcurrentEnginesOnTwoThreads) {
  constexpr int kRanks = 32;
  const double expected = run_allreduce(kRanks, 11);
  const std::uint64_t mapped0 = stacks_mapped();
  auto worker = [&] {
    for (int i = 0; i < 20; ++i) EXPECT_EQ(run_allreduce(kRanks, 11), expected);
    // Each thread's pool holds only the stacks it mapped itself.
    EXPECT_EQ(sim::Fiber::pooled_stacks(), static_cast<std::size_t>(kRanks));
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_LE(stacks_mapped() - mapped0,
            static_cast<std::uint64_t>(2 * kRanks));
}

TEST(FiberStackPool, EngineDestroyedOnAnotherThread) {
  constexpr int kRanks = 16;
  const double expected = run_allreduce(kRanks, 3);
  const std::size_t pooled = sim::Fiber::pooled_stacks();

  // Built and run on a worker, destroyed here: the stacks belong to the
  // worker's (already released) pool, so they are unmapped, not adopted.
  std::unique_ptr<sim::Engine> eng;
  std::thread([&] {
    eng = std::make_unique<sim::Engine>(kRanks, sim::Machine::knl_like(), 3);
    EXPECT_EQ(run_allreduce(*eng), expected);
  }).join();
  eng.reset();
  EXPECT_EQ(sim::Fiber::pooled_stacks(), pooled);

  // Built and run here, destroyed on a worker: the stacks are unmapped
  // there and this thread's pool does not get them back either.
  eng = std::make_unique<sim::Engine>(kRanks, sim::Machine::knl_like(), 3);
  EXPECT_EQ(run_allreduce(*eng), expected);
  const std::size_t pooled_while_live = sim::Fiber::pooled_stacks();
  std::thread([&] {
    eng.reset();
    EXPECT_EQ(sim::Fiber::pooled_stacks(), 0u);
  }).join();
  EXPECT_EQ(sim::Fiber::pooled_stacks(), pooled_while_live);
  EXPECT_EQ(run_allreduce(kRanks, 3), expected);
}

TEST(FiberStackPool, FiberOutlivingItsThreadsPoolUnmapsDirectly) {
  // A thread_local constructed before the pool is destroyed after it, so
  // the fiber it holds meets a released pool at thread exit.
  std::thread([] {
    thread_local std::unique_ptr<sim::Fiber> late;
    late = std::make_unique<sim::Fiber>([] {});
    late->resume();
    EXPECT_TRUE(late->finished());
  }).join();
}

TEST(FiberStackPool, ThrowingBodyReportsErrorAndItsStackIsReused) {
  {
    sim::Fiber f([] { throw std::runtime_error("rank body failed"); });
    f.resume();
    EXPECT_TRUE(f.finished());
    ASSERT_TRUE(f.error());
    try {
      std::rethrow_exception(f.error());
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "rank body failed");
    }
  }
  const std::size_t pooled = sim::Fiber::pooled_stacks();
  ASSERT_GE(pooled, 1u);

  int steps = 0;
  sim::Fiber* self = nullptr;
  sim::Fiber g([&] {
    for (int i = 0; i < 3; ++i) {
      ++steps;
      self->yield();
    }
  });
  self = &g;
  EXPECT_TRUE(g.stack_reused());
  EXPECT_EQ(sim::Fiber::pooled_stacks(), pooled - 1);
  int resumes = 0;
  for (; !g.finished(); ++resumes) g.resume();
  EXPECT_EQ(resumes, 4);
  EXPECT_FALSE(g.error());
  EXPECT_EQ(steps, 3);

  // The same through an engine: a throwing rank fails the run, and the
  // next run on this thread takes the stacks back cleanly.
  constexpr int kRanks = 8;
  {
    sim::Engine bad(kRanks, sim::Machine::knl_like(), 5);
    EXPECT_THROW(bad.run([](sim::RankCtx& ctx) {
                   if (ctx.rank == 3) throw std::runtime_error("rank 3");
                   sim::barrier(sim::world());
                 }),
                 std::runtime_error);
  }
  const std::uint64_t mapped0 = stacks_mapped();
  run_allreduce(kRanks, 5);
  EXPECT_EQ(stacks_mapped(), mapped0);
}

TEST(FiberStackPoolDeathTest, OverflowOnAReusedStackHitsTheGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  { sim::Fiber warm([] {}); warm.resume(); }
  sim::Fiber deep([] {
#if !defined(CRITTER_TEST_ASAN)
    char top = 0;
    g_fiber_top = reinterpret_cast<std::intptr_t>(&top);
#endif
    recurse_forever(0);
  });
  ASSERT_TRUE(deep.stack_reused());
#if defined(CRITTER_TEST_ASAN)
  // ASan owns SIGSEGV; it reports a fault next to the stack pointer.
  EXPECT_DEATH(deep.resume(), "stack-overflow");
#else
  EXPECT_EXIT(overflow_with_fault_probe(deep),
              testing::ExitedWithCode(kGuardPageFault), "");
#endif
}
