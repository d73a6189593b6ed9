#include "runtime/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"

namespace logp::runtime {

Scheduler::Scheduler(sim::MachineConfig cfg)
    : machine_(std::move(cfg), *this),
      pstates_(static_cast<std::size_t>(machine_.params().P)) {
#ifndef LOGP_OBS_DISABLED
  if (obs::MetricsRegistry* reg = machine_.config().metrics) {
    obs_.tasks_spawned = reg->counter("rt.tasks.spawned");
    obs_.handlers_invoked = reg->counter("rt.handlers.invoked");
    obs_.mailbox_depth = reg->gauge("rt.mailbox.depth");
    obs_.recv_waiters_depth = reg->gauge("rt.recv_waiters.depth");
  }
#endif
}

Scheduler::~Scheduler() = default;

void Scheduler::set_handler(std::int32_t tag, Handler h) {
  LOGP_CHECK_MSG(tag != kAnyTag, "handler tag must be concrete");
  for (auto& [t, fn] : handlers_)
    if (t == tag) {
      fn = std::move(h);
      return;
    }
  handlers_.emplace_back(tag, std::move(h));
}

Cycles Scheduler::run() {
  LOGP_CHECK_MSG(!ran_, "Scheduler::run may only be called once");
  LOGP_CHECK_MSG(static_cast<bool>(program_), "no program set");
  ran_ = true;
  const Cycles end = machine_.run();
  if (first_error_) std::rethrow_exception(first_error_);

  // Quiescent: no events remain. Every task must have finished; anything
  // else is a genuine deadlock (blocked in recv with nobody left to send).
  std::ostringstream os;
  bool dead = false;
  for (ProcId p = 0; p < machine_.params().P; ++p) {
    auto& ps = pstates_[static_cast<std::size_t>(p)];
    sweep_finished(ps);
    if (!ps.toplevel.empty() || !ps.recv_waiters.empty()) {
      dead = true;
      os << " proc " << p << ": " << ps.toplevel.size() << " unfinished task(s), "
         << ps.recv_waiters.size() << " blocked recv(s)";
      if (!ps.recv_waiters.empty()) {
        const auto& w = ps.recv_waiters.front();
        os << " [first waits tag=" << w.tag << " src=" << w.src << "]";
      }
      os << ";";
    }
  }
  if (dead) throw DeadlockError("deadlock at t=" + std::to_string(end) + ":" + os.str());
  return end;
}

void Scheduler::spawn_on(ProcId p, Task t) {
  LOGP_CHECK(t.valid());
  LOGP_OBS_COUNT(obs_.tasks_spawned, 1);
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  ps.ready.push_back(t.handle());
  ps.toplevel.push_back(std::move(t));
  pump(p);
}

void Scheduler::op_compute(ProcId p, Cycles dur, std::coroutine_handle<> h) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(!ps.cpu_owner, "two tasks racing for one CPU");
  ps.cpu_owner = h;
  machine_.start_compute(p, dur);
}

void Scheduler::op_send(ProcId p, const Message& m, std::coroutine_handle<> h) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(!ps.cpu_owner, "two tasks racing for one CPU");
  ps.cpu_owner = h;
  machine_.start_send(p, m);
}

void Scheduler::op_send_dma(ProcId p, const Message& m, std::uint64_t words,
                            Cycles gap, std::coroutine_handle<> h) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(!ps.cpu_owner, "two tasks racing for one CPU");
  ps.cpu_owner = h;
  machine_.start_send_dma(p, m, words, gap);
}

bool Scheduler::try_take_mailbox(ProcId p, std::int32_t tag, ProcId src,
                                 Message* out) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  const RecvWaiter probe{tag, src, nullptr, nullptr};
  for (std::size_t i = 0; i < ps.mailbox.size(); ++i) {
    if (matches(probe, ps.mailbox[i])) {
      *out = ps.mailbox[i];
      ps.mailbox.erase(i);
      return true;
    }
  }
  return false;
}

void Scheduler::add_recv_waiter(ProcId p, std::int32_t tag, ProcId src,
                                std::coroutine_handle<> h, Message* slot) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  ps.recv_waiters.push_back(RecvWaiter{tag, src, h, slot});
  LOGP_OBS_GAUGE_SET(obs_.recv_waiters_depth,
                     static_cast<std::int64_t>(ps.recv_waiters.size()));
  // The processor may have been left idle with arrivals pending (e.g. it
  // was mid-resume when they landed); make sure acceptance restarts.
  pump(p);
}

void Scheduler::add_timed_recv_waiter(ProcId p, std::int32_t tag, ProcId src,
                                      std::coroutine_handle<> h, TimedRecv* out,
                                      Cycles deadline) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  const std::uint64_t id = next_waiter_id_++;
  ps.recv_waiters.push_back(RecvWaiter{tag, src, h, &out->msg, out, id});
  LOGP_OBS_GAUGE_SET(obs_.recv_waiters_depth,
                     static_cast<std::int64_t>(ps.recv_waiters.size()));
  // The deadline timer resolves the waiter with ok == false. A message
  // arriving first removes the waiter; the timer then finds no matching id
  // and does nothing (the machine has no timer cancellation — the guard is
  // the id, exactly like the reliable layer's generation-stamped slots).
  machine_.schedule_call(deadline, [this, p, id] {
    auto& st = pstates_[static_cast<std::size_t>(p)];
    for (auto it = st.recv_waiters.begin(); it != st.recv_waiters.end(); ++it) {
      if (it->id == id) {
        auto handle = it->handle;
        st.recv_waiters.erase(it);
        st.ready.push_back(handle);
        pump(p);
        return;
      }
    }
  });
  pump(p);
}

void Scheduler::op_sleep(ProcId p, Cycles t, std::coroutine_handle<> h) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  ++ps.sleepers;
  machine_.schedule_call(t, [this, p, h] {
    auto& st = pstates_[static_cast<std::size_t>(p)];
    --st.sleepers;
    st.ready.push_back(h);
    pump(p);
  });
}

void Scheduler::on_startup(ProcId p) {
  if (program_) spawn_on(p, program_(Ctx(this, p)));
}

void Scheduler::on_compute_done(ProcId p) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  LOGP_CHECK(ps.cpu_owner);
  ps.ready.push_front(std::exchange(ps.cpu_owner, nullptr));
  pump(p);
}

void Scheduler::on_send_done(ProcId p) { on_compute_done(p); }

void Scheduler::deliver(ProcId p, const Message& m) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  bool handled = false;
  for (auto& [tag, fn] : handlers_) {
    if (tag == m.tag) {
      LOGP_OBS_COUNT(obs_.handlers_invoked, 1);
      fn(Ctx(this, p), m);
      handled = true;
      break;
    }
  }
  if (!handled) {
    bool matched = false;
    for (auto it = ps.recv_waiters.begin(); it != ps.recv_waiters.end(); ++it) {
      if (matches(*it, m)) {
        *it->slot = m;
        if (it->timed) it->timed->ok = true;
        ps.ready.push_front(it->handle);
        ps.recv_waiters.erase(it);
        matched = true;
        break;
      }
    }
    if (!matched) {
      ps.mailbox.push_back(m);
      LOGP_OBS_GAUGE_SET(obs_.mailbox_depth,
                         static_cast<std::int64_t>(ps.mailbox.size()));
    }
  }
  pump(p);
}

void Scheduler::on_accept_done(ProcId p, const Message& m) { deliver(p, m); }

void Scheduler::inject_local(ProcId p, const Message& m) { deliver(p, m); }

void Scheduler::push_ready(ProcId p, std::coroutine_handle<> h) {
  LOGP_CHECK(h);
  pstates_[static_cast<std::size_t>(p)].ready.push_back(h);
  pump(p);
}

void Scheduler::on_message_arrived(ProcId p) { pump(p); }

void Scheduler::pump(ProcId p) {
  auto& ps = pstates_[static_cast<std::size_t>(p)];
  if (ps.pumping) return;
  ps.pumping = true;
  bool resumed = false;
  while (machine_.cpu_idle(p)) {
    const bool have_arrivals = machine_.arrivals_pending(p) > 0;
    const bool have_ready = !ps.ready.empty();
    // Accept-priority only jumps the queue when the receive port is ready;
    // otherwise starting the reception would park the CPU in a gap wait
    // while runnable tasks (e.g. replies to send) starve.
    const bool accept_now =
        have_arrivals && (machine_.recv_port_ready(p) || !have_ready);
    if (accept_now && (accept_priority_ || !have_ready)) {
      machine_.start_accept(p);
      continue;  // CPU is now engaged (or waiting on the receive port)
    }
    if (have_ready) {
      auto h = ps.ready.front();
      ps.ready.pop_front();
      resume(p, h);
      resumed = true;
      continue;
    }
    if (have_arrivals) {
      machine_.start_accept(p);  // nothing else to do; wait for the port
      continue;
    }
    break;  // genuinely idle
  }
  // Tasks only finish inside resume(); a pump that merely started machine
  // operations has nothing to reap.
  if (resumed) sweep_finished(ps);
  ps.pumping = false;
}

void Scheduler::resume(ProcId p, std::coroutine_handle<> h) {
  (void)p;
  LOGP_CHECK(h && !h.done());
  h.resume();
}

void Scheduler::sweep_finished(PState& ps) {
  std::erase_if(ps.toplevel, [this](const Task& t) {
    if (!t.done()) return false;
    if (t.handle().promise().error) note_error(t.handle().promise().error);
    return true;
  });
}

}  // namespace logp::runtime
