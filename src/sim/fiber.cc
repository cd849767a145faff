#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "util/check.hpp"

// AddressSanitizer tracks one shadow stack per thread; switching stacks
// underneath it without notice produces false positives (and breaks
// use-after-return detection).  The __sanitizer_*_switch_fiber protocol
// hands the stack bounds over at every switch, which keeps the ASan+UBSan
// CI job honest on the fiber-based engine.  All annotations compile away in
// non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define CRITTER_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRITTER_ASAN_FIBERS 1
#endif
#endif

#if defined(CRITTER_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace critter::sim {

namespace {
// makecontext() passes only int arguments portably; hand the Fiber* over in
// a thread-local slot instead.  Safe because a fiber never migrates between
// OS threads and the slot is consumed synchronously inside resume(); the
// thread_local keeps concurrent engines (one per tuner worker) independent.
thread_local Fiber* g_trampoline_arg = nullptr;

#if defined(CRITTER_ASAN_FIBERS)
// Scheduler-side fake-stack handle plus the scheduler stack bounds a fiber
// must announce when switching back (captured from the finish call that
// runs on fiber entry).  One engine runs per OS thread, so thread_local
// slots suffice.
thread_local void* g_sched_fake_stack = nullptr;
thread_local const void* g_sched_stack_bottom = nullptr;
thread_local std::size_t g_sched_stack_size = 0;
#endif
}  // namespace

#if defined(CRITTER_FIBER_FAST)

// Hand-rolled System V AMD64 context switch.  glibc's swapcontext saves and
// restores the signal mask with a sigprocmask syscall on every switch
// (~200ns each); the engine switches fibers millions of times per simulated
// run and never touches signal state from a fiber, so we save exactly what
// the psABI requires across a call — callee-saved GPRs plus the x87/SSE
// control words — and swap stack pointers in userspace (~10ns).
asm(R"(
.text
.globl critter_fiber_swap
.hidden critter_fiber_swap
.type critter_fiber_swap, @function
.align 16
critter_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size critter_fiber_swap, .-critter_fiber_swap
)");

extern "C" void critter_fiber_swap(void** save_sp, void* restore_sp);

#endif  // CRITTER_FIBER_FAST

// Per-thread pool of guard-paged stacks (DESIGN.md §11, "Fiber stack
// pool").  Every simulated run builds one fiber per rank, and mapping,
// guarding, faulting in and unmapping a fresh stack each time cost more
// than many runs' events; a pooled stack keeps its guard page and its
// touched pages for its whole life.  The pool holds only stacks its own
// thread mapped, and maps only when empty, so it never exceeds the most
// fibers that were live on the thread at once.  No locking: a fiber
// destroyed on another thread unmaps its stack instead of returning it.
struct FiberStackPool {
  struct Stack {
    void* base;
    std::size_t bytes;
  };
  std::vector<Stack> free;

  void* take(std::size_t bytes) {
    for (std::size_t i = free.size(); i-- > 0;) {
      if (free[i].bytes != bytes) continue;
      void* base = free[i].base;
      free[i] = free.back();
      free.pop_back();
      return base;
    }
    return nullptr;
  }

  ~FiberStackPool();
};

namespace {
// Set once the thread's pool is destroyed at thread exit: a fiber created
// or destroyed later in the teardown (another thread_local's destructor)
// maps or unmaps its stack directly.  Trivially destructible, so it stays
// readable after the pool is gone.
thread_local bool t_pool_gone = false;
thread_local FiberStackPool t_pool;

FiberStackPool* thread_pool() { return t_pool_gone ? nullptr : &t_pool; }
}  // namespace

FiberStackPool::~FiberStackPool() {
  t_pool_gone = true;
  for (const Stack& s : free) munmap(s.base, s.bytes);
}

std::size_t Fiber::pooled_stacks() {
  const FiberStackPool* pool = thread_pool();
  return pool != nullptr ? pool->free.size() : 0;
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), pool_(thread_pool()) {
  const long page = sysconf(_SC_PAGESIZE);
  stack_bytes_ = ((stack_bytes + page - 1) / page) * page + page;  // + guard
  if (pool_ != nullptr) stack_ = pool_->take(stack_bytes_);
  stack_reused_ = stack_ != nullptr;
  if (stack_reused_) return;
  stack_ = mmap(nullptr, stack_bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CRITTER_CHECK(stack_ != MAP_FAILED, "fiber stack mmap failed");
  // Guard page at the low end (stacks grow down) turns overflow into SIGSEGV
  // instead of silent corruption.  It stays for the mapping's life.
  CRITTER_CHECK(mprotect(stack_, page, PROT_NONE) == 0, "guard page mprotect");
}

Fiber::~Fiber() {
#if defined(CRITTER_ASAN_FIBERS)
  // Frames poisoned on this stack would otherwise trip ASan when the next
  // fiber reuses the stack, or something else reuses the address range.
  __asan_unpoison_memory_region(stack_, stack_bytes_);
#endif
  if (pool_ != nullptr && pool_ == thread_pool())
    pool_->free.push_back({stack_, stack_bytes_});
  else
    munmap(stack_, stack_bytes_);
}

void Fiber::trampoline() {
  Fiber* self = g_trampoline_arg;
  g_trampoline_arg = nullptr;
#if defined(CRITTER_ASAN_FIBERS)
  // First time on this stack: no fake stack to restore; remember the
  // scheduler stack we came from for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
  try {
    self->body_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  // Return to the scheduler; the context is never resumed again.
  self->yield();
  __builtin_unreachable();
}

#if defined(CRITTER_FIBER_FAST)

void Fiber::resume() {
  CRITTER_CHECK(!finished_, "resuming a finished fiber");
  if (!started_) {
    started_ = true;
    // Craft an initial stack frame such that the first swap "returns" into
    // trampoline().  The layout must mirror critter_fiber_swap exactly:
    // [6 callee-saved slots][8-byte fpu word][return address], with the
    // return-address slot placed so %rsp ≡ 8 (mod 16) at trampoline entry,
    // as the psABI requires at a function's first instruction.
    auto top = reinterpret_cast<std::uintptr_t>(
                   static_cast<char*>(stack_) + stack_bytes_) &
               ~static_cast<std::uintptr_t>(15);
    auto* frame = reinterpret_cast<std::uintptr_t*>(top - 16) - 7;
    std::uint32_t fpu[2] = {0, 0};
    asm volatile("fnstcw %0; stmxcsr %1"
                 : "=m"(*reinterpret_cast<std::uint16_t*>(&fpu[0])),
                   "=m"(fpu[1]));
    frame[0] = *reinterpret_cast<std::uintptr_t*>(fpu);  // fcw @0, mxcsr @4
    for (int i = 1; i < 7; ++i) frame[i] = 0;  // r15, r14, r13, r12, rbx, rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
    sp_ = frame;
    g_trampoline_arg = this;
  }
#if defined(CRITTER_ASAN_FIBERS)
  const long page = sysconf(_SC_PAGESIZE);
  __sanitizer_start_switch_fiber(&g_sched_fake_stack,
                                 static_cast<char*>(stack_) + page,
                                 stack_bytes_ - page);
#endif
  critter_fiber_swap(&scheduler_sp_, sp_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_sched_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(CRITTER_ASAN_FIBERS)
  // A finished fiber never comes back: a null save slot tells ASan to
  // destroy its fake stack instead of parking it.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_stack_,
                                 g_sched_stack_bottom, g_sched_stack_size);
#endif
  critter_fiber_swap(&sp_, scheduler_sp_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
}

#else  // ucontext fallback for non-x86-64 targets

void Fiber::resume() {
  CRITTER_CHECK(!finished_, "resuming a finished fiber");
  if (!started_) {
    started_ = true;
    CRITTER_CHECK(getcontext(&context_) == 0, "getcontext");
    const long page = sysconf(_SC_PAGESIZE);
    context_.uc_stack.ss_sp = static_cast<char*>(stack_) + page;
    context_.uc_stack.ss_size = stack_bytes_ - page;
    context_.uc_link = nullptr;
    g_trampoline_arg = this;
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
  }
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&g_sched_fake_stack,
                                 context_.uc_stack.ss_sp,
                                 context_.uc_stack.ss_size);
#endif
  swapcontext(&scheduler_context_, &context_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_sched_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_stack_,
                                 g_sched_stack_bottom, g_sched_stack_size);
#endif
  swapcontext(&context_, &scheduler_context_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
}

#endif

}  // namespace critter::sim
