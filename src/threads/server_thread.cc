#include "src/threads/server_thread.h"

#include <utility>

#include "src/common/check.h"

namespace dfil::threads {

ThreadSystem::ThreadSystem(ContextBackend backend, HostContext* host)
    : backend_(backend), host_(host) {
  if (host_ == nullptr) {
    own_host_ = std::make_unique<HostContext>(backend_);
    host_ = own_host_.get();
  }
  DFIL_CHECK(host_->context.backend() == backend_) << "mixed context backends";
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

ServerThread* ThreadSystem::SwitchTo(ServerThread* thread) {
  DFIL_CHECK(current_ == nullptr) << "SwitchTo must be called from the host context";
  DFIL_CHECK(thread->state_ == ThreadState::kReady);
  thread->state_ = ThreadState::kRunning;
  current_ = thread;
  Context::Switch(&host_->context, &thread->context_);
  // A thread switched back (it blocked, yielded or finished) and cleared its system's current_.
  return host_->returned;
}

void ThreadSystem::SwitchToHost() {
  ServerThread* thread = current_;
  DFIL_CHECK(thread != nullptr) << "SwitchToHost must be called from a server thread";
  DFIL_CHECK(thread->state_ != ThreadState::kRunning)
      << "set the thread state (blocked/ready/done) before switching away";
  current_ = nullptr;
  host_->returned = thread;
  Context::Switch(&thread->context_, &host_->context);
}

void ThreadSystem::HandOff(ServerThread* self, ThreadSystem& to_system, ServerThread* to) {
  DFIL_DCHECK(self == current_);
  DFIL_DCHECK(self->state_ != ThreadState::kRunning);
  DFIL_DCHECK(to->system_ == &to_system && to_system.host_ == host_);
  DFIL_DCHECK(to_system.current_ == nullptr);
  DFIL_CHECK(to->state_ == ThreadState::kReady);
  current_ = nullptr;
  to->state_ = ThreadState::kRunning;
  to_system.current_ = to;
  Context::Switch(&self->context_, &to->context_);
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
