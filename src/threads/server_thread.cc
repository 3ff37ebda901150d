#include "src/threads/server_thread.h"

#include <utility>

#include "src/common/check.h"

namespace dfil::threads {

ThreadSystem::ThreadSystem(ContextBackend backend, size_t stack_bytes)
    : backend_(backend), stack_pool_(stack_bytes) {
  host_context_.InitAsCaller(backend_);
}

ThreadSystem::~ThreadSystem() = default;

void ThreadSystem::ThreadEntry(void* arg) {
  auto* thread = static_cast<ServerThread*>(arg);
  thread->body_();
  thread->state_ = ThreadState::kDone;
  thread->system_->SwitchToHost();
  DFIL_CHECK(false) << "resumed a finished server thread";
}

ServerThread* ThreadSystem::Create(std::function<void()> body) {
  ServerThread* thread;
  if (!parked_.empty()) {
    thread = parked_.back();
    parked_.pop_back();
  } else {
    all_threads_.push_back(std::make_unique<ServerThread>());
    thread = all_threads_.back().get();
  }
  thread->id_ = next_id_++;
  thread->state_ = ThreadState::kReady;
  thread->set_block_reason(WaitKind::kIdle);
  thread->body_ = std::move(body);
  thread->system_ = this;
  thread->stack_ = stack_pool_.Acquire();
  thread->context_.Init(thread->stack_->usable(), &ThreadEntry, thread, backend_);
  ++live_;
  return thread;
}

void ThreadSystem::SwitchTo(ServerThread* thread) {
  DFIL_CHECK(current_ == nullptr) << "SwitchTo must be called from the host context";
  DFIL_CHECK(thread->state_ == ThreadState::kReady);
  thread->state_ = ThreadState::kRunning;
  current_ = thread;
  Context::Switch(&host_context_, &thread->context_);
  // The thread switched back: either it blocked/yielded, or it finished.
  current_ = nullptr;
  if (thread->state_ == ThreadState::kDone && on_exit) {
    on_exit(thread);
  }
}

void ThreadSystem::SwitchToHost() {
  ServerThread* thread = current_;
  DFIL_CHECK(thread != nullptr) << "SwitchToHost must be called from a server thread";
  DFIL_CHECK(thread->state_ != ThreadState::kRunning)
      << "set the thread state (blocked/ready/done) before switching away";
  Context::Switch(&thread->context_, &host_context_);
}

void ThreadSystem::Recycle(ServerThread* thread) {
  DFIL_CHECK(thread->state_ == ThreadState::kDone);
  DFIL_CHECK(thread != current_);
  stack_pool_.Release(std::move(thread->stack_));
  thread->body_ = nullptr;
  parked_.push_back(thread);
  --live_;
}

}  // namespace dfil::threads
