#include "simnet/sim.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace blobseer::simnet {

struct SimScheduler::Task {
  TaskId id = 0;
  enum class State { kReady, kRunning, kSleeping, kCondWait };
  State state = State::kReady;
  double wake_time = kNever;
  uint64_t wake_seq = 0;  ///< invalidates stale wake-heap entries
  bool notified = false;
  SimCondition* cond = nullptr;
  uint32_t node = 0;
  std::vector<TaskId> join_waiters;
  std::function<void()> fn;  ///< body; moved out when the task starts
  ucontext_t ctx;
  char* stack = nullptr;  ///< mapping (guard page first); null for the root
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

namespace {

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

SimScheduler::SimScheduler() = default;

SimScheduler::~SimScheduler() {
  for (char* stack : free_stacks_) munmap(stack, PageBytes() + kTaskStackBytes);
}

SimScheduler::Task* SimScheduler::Current() const {
  BS_CHECK(current_ != nullptr) << "not on a sim task";
  return current_;
}

uint32_t SimScheduler::CurrentNode() const { return Current()->node; }

void SimScheduler::SetCurrentNode(uint32_t node) { Current()->node = node; }

void SimScheduler::MakeReady(Task* t) {
  t->state = Task::State::kReady;
  t->wake_time = kNever;
  t->wake_seq++;  // invalidates any heap entry for this task
  t->cond = nullptr;
  ready_.push_back(t->id);
}

void SimScheduler::PushWake(Task* t) {
  t->wake_seq++;
  wake_heap_.push(HeapEntry{t->wake_time, t->wake_seq, t->id});
}

SimScheduler::Task* SimScheduler::PickNext() {
  if (!ready_.empty()) {
    TaskId id = ready_.front();
    ready_.pop_front();
    return tasks_.at(id).get();
  }
  // Advance virtual time to the earliest valid sleeper / deadline waiter.
  while (!wake_heap_.empty()) {
    HeapEntry e = wake_heap_.top();
    auto it = tasks_.find(e.task);
    if (it == tasks_.end() || it->second->wake_seq != e.seq) {
      wake_heap_.pop();  // stale
      continue;
    }
    Task* best = it->second.get();
    BS_CHECK(best->state == Task::State::kSleeping ||
             best->state == Task::State::kCondWait)
        << "live heap entry for non-blocked task";
    wake_heap_.pop();
    now_ = std::max(now_, e.time);
    if (best->cond) {
      auto& ws = best->cond->waiters_;
      ws.erase(std::remove(ws.begin(), ws.end(), best->id), ws.end());
    }
    best->wake_seq++;
    best->cond = nullptr;
    return best;
  }
  BS_CHECK(false) << "virtual-time deadlock: " << tasks_.size()
                  << " tasks blocked with no wake source";
  return nullptr;
}

void SimScheduler::SwitchOut(Task* me, [[maybe_unused]] bool exiting) {
  Task* next = PickNext();
  next->state = Task::State::kRunning;
  if (next == me) return;  // a yield or sleep with nothing else to run
  current_ = next;
#ifdef __SANITIZE_ADDRESS__
  // A null save slot tells ASan that `me` dies (its fake stack is freed).
  __sanitizer_start_switch_fiber(
      exiting ? nullptr : &me->asan_fake_stack,
      next->stack ? next->stack + PageBytes() : root_stack_lo_,
      next->stack ? kTaskStackBytes : root_stack_size_);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(next->tsan_fiber, 0);
#endif
  swapcontext(&me->ctx, &next->ctx);
  Landed(me);
}

void SimScheduler::Landed([[maybe_unused]] Task* me) {
#ifdef __SANITIZE_ADDRESS__
  const void* from_lo = nullptr;
  size_t from_size = 0;
  __sanitizer_finish_switch_fiber(me->asan_fake_stack, &from_lo, &from_size);
  // The first switch of a run leaves the root (then the only task): that
  // is where the Run caller's stack bounds come from.
  if (root_stack_lo_ == nullptr) {
    root_stack_lo_ = from_lo;
    root_stack_size_ = from_size;
  }
#endif
  if (!exited_) return;
#ifdef __SANITIZE_THREAD__
  __tsan_destroy_fiber(exited_->tsan_fiber);
#endif
  free_stacks_.push_back(exited_->stack);
  exited_.reset();
}

void SimScheduler::TaskMain(uint32_t self_hi, uint32_t self_lo) noexcept {
  auto* self = reinterpret_cast<SimScheduler*>(
      (static_cast<uintptr_t>(self_hi) << 32) | self_lo);
  Task* me = self->current_;
  self->Landed(me);
  me->fn();
  me->fn = nullptr;  // captures die while the task can still be scheduled
  for (TaskId w : me->join_waiters) {
    auto it = self->tasks_.find(w);
    if (it != self->tasks_.end() &&
        it->second->state == Task::State::kCondWait &&
        it->second->cond == nullptr) {
      it->second->notified = true;
      self->MakeReady(it->second.get());
    }
  }
  // The record leaves the table now (Join treats a missing id as
  // finished); its stack stays in use until the switch lands elsewhere.
  self->exited_ = std::move(self->tasks_.extract(me->id).mapped());
  self->SwitchOut(me, /*exiting=*/true);
  BS_CHECK(false) << "exited sim task resumed";
}

char* SimScheduler::AllocStack() {
  if (!free_stacks_.empty()) {
    char* stack = free_stacks_.back();
    free_stacks_.pop_back();
    return stack;
  }
  void* mem = mmap(nullptr, PageBytes() + kTaskStackBytes,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  BS_CHECK(mem != MAP_FAILED)
      << "sim task stack mmap: " << std::strerror(errno);
  // Guard page below the stack (it grows down): an overflow faults
  // instead of corrupting a neighbour.
  BS_CHECK(mprotect(mem, PageBytes(), PROT_NONE) == 0)
      << "sim task guard page: " << std::strerror(errno);
  return static_cast<char*>(mem);
}

void SimScheduler::SleepFor(double us) {
  Task* me = Current();
  if (us <= 0) {
    // Yield: go to the back of the ready queue.
    MakeReady(me);
  } else {
    me->state = Task::State::kSleeping;
    me->wake_time = now_ + us;
    PushWake(me);
  }
  SwitchOut(me);
}

SimScheduler::TaskId SimScheduler::Spawn(std::function<void()> fn) {
  Task* parent = Current();
  auto task = std::make_unique<Task>();
  Task* t = task.get();
  t->id = ++next_id_;
  t->node = parent->node;
  t->fn = std::move(fn);
  t->stack = AllocStack();
  BS_CHECK(getcontext(&t->ctx) == 0)
      << "getcontext: " << std::strerror(errno);
  t->ctx.uc_stack.ss_sp = t->stack + PageBytes();
  t->ctx.uc_stack.ss_size = kTaskStackBytes;
  t->ctx.uc_link = nullptr;
  // makecontext passes int-sized arguments: split the scheduler pointer.
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&t->ctx, reinterpret_cast<void (*)()>(&TaskMain), 2,
              static_cast<uint32_t>(self >> 32), static_cast<uint32_t>(self));
#ifdef __SANITIZE_THREAD__
  t->tsan_fiber = __tsan_create_fiber(0);
#endif
  tasks_.emplace(t->id, std::move(task));
  ready_.push_back(t->id);
  return t->id;
}

void SimScheduler::Join(TaskId id) {
  Task* me = Current();
  while (tasks_.count(id)) {
    tasks_.at(id)->join_waiters.push_back(me->id);
    me->state = Task::State::kCondWait;
    me->wake_time = kNever;
    me->cond = nullptr;
    me->notified = false;
    SwitchOut(me);
  }
}

void SimScheduler::Run(std::function<void()> root) {
  BS_CHECK(tasks_.empty()) << "SimScheduler::Run is not reentrant";
  auto task = std::make_unique<Task>();
  Task* me = task.get();
  me->id = ++next_id_;
  me->state = Task::State::kRunning;
#ifdef __SANITIZE_THREAD__
  me->tsan_fiber = __tsan_get_current_fiber();
#endif
  tasks_.emplace(me->id, std::move(task));
  current_ = me;
  root_stack_lo_ = nullptr;
  root();
  // Drain: wait for every spawned task to finish, lowest id first.
  while (tasks_.size() > 1) Join(std::next(tasks_.begin())->first);
  current_ = nullptr;
  tasks_.clear();
}

bool SimCondition::WaitUntil(double deadline_us) {
  SimScheduler::Task* me = sched_->Current();
  me->state = SimScheduler::Task::State::kCondWait;
  me->wake_time = deadline_us;
  me->cond = this;
  me->notified = false;
  waiters_.push_back(me->id);
  if (deadline_us != SimScheduler::kNever) sched_->PushWake(me);
  sched_->SwitchOut(me);
  bool notified = me->notified;
  me->notified = false;
  return notified;
}

void SimCondition::NotifyAll() {
  for (SimScheduler::TaskId id : waiters_) {
    auto it = sched_->tasks_.find(id);
    if (it == sched_->tasks_.end()) continue;
    SimScheduler::Task* t = it->second.get();
    if (t->state != SimScheduler::Task::State::kCondWait || t->cond != this)
      continue;
    t->notified = true;
    sched_->MakeReady(t);
  }
  waiters_.clear();
}

void SimSemaphore::Acquire() {
  if (free_ > 0) {
    free_--;
    return;
  }
  auto cond = std::make_unique<SimCondition>(sched_);
  SimCondition* c = cond.get();
  queue_.push_back(std::move(cond));
  // Woken exactly once by Release, which transfers the slot to us.
  c->WaitUntil(SimScheduler::kNever);
}

void SimSemaphore::Release() {
  if (!queue_.empty()) {
    std::unique_ptr<SimCondition> cond = std::move(queue_.front());
    queue_.pop_front();
    // Slot handed directly to the woken task; `free_` unchanged. NotifyAll
    // completes before the condition object dies.
    cond->NotifyAll();
    return;
  }
  free_++;
}

Status SimExecutor::ParallelFor(size_t n, size_t max_parallel,
                                const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (max_parallel == 0) max_parallel = 8;
  size_t workers = std::min(n, max_parallel);
  if (workers <= 1) {
    Status first;
    for (size_t i = 0; i < n; i++) {
      Status s = fn(i);
      if (!s.ok() && first.ok()) first = s;
    }
    return first;
  }
  // Shared index counter; tasks are serialized so plain variables are safe.
  auto next = std::make_shared<size_t>(0);
  auto first = std::make_shared<Status>();
  std::vector<SimScheduler::TaskId> ids;
  ids.reserve(workers);
  for (size_t w = 0; w < workers; w++) {
    ids.push_back(sched_->Spawn([n, next, first, &fn] {
      for (;;) {
        size_t i = (*next)++;
        if (i >= n) return;
        Status s = fn(i);
        if (!s.ok() && first->ok()) *first = s;
      }
    }));
  }
  for (auto id : ids) sched_->Join(id);
  return *first;
}

}  // namespace blobseer::simnet
