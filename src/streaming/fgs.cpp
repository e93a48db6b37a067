#include "streaming/fgs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/aligned.hpp"
#include "exec/error.hpp"
#include "exec/simd.hpp"

namespace holms::streaming {

SlotLossTrace::SlotLossTrace(const fault::FaultSchedule* schedule,
                             double slot_s, double nominal_loss,
                             double faulty_loss, double soft_loss)
    : injector_(schedule), slot_s_(slot_s), nominal_(nominal_loss),
      faulty_(faulty_loss),
      soft_(soft_loss < 0.0 ? faulty_loss : soft_loss) {
  if (!(slot_s > 0.0)) {
    throw holms::InvalidArgument("SlotLossTrace: slot_s must be > 0");
  }
  if (!(nominal_loss >= 0.0 && nominal_loss <= 1.0) ||
      !(faulty_loss >= 0.0 && faulty_loss <= 1.0) || !(soft_ <= 1.0)) {
    throw holms::InvalidArgument("SlotLossTrace: loss must be in [0, 1]");
  }
}

double SlotLossTrace::loss_for_slot(std::size_t slot) {
  // Apply every event up to the start of this slot; the active hard and
  // soft counts are what's left standing.
  injector_.poll(static_cast<double>(slot) * slot_s_,
                 [this](const fault::FaultEvent& e) {
                   switch (e.kind) {
                     case fault::FaultKind::kFail:
                       ++active_faults_;
                       break;
                     case fault::FaultKind::kRepair:
                       if (active_faults_ > 0) --active_faults_;
                       break;
                     case fault::FaultKind::kSoftFail:
                       ++active_soft_;
                       break;
                     case fault::FaultKind::kScrub:
                       if (active_soft_ > 0) {
                         --active_soft_;
                         ++scrubs_applied_;
                       }
                       break;
                   }
                 });
  if (active_faults_ > 0) return faulty_;
  return active_soft_ > 0 ? soft_ : nominal_;
}

ChannelTrace::ChannelTrace(sim::Rng rng, double good_bps, double mid_bps,
                           double bad_bps)
    : rng_(rng), rates_{good_bps, mid_bps, bad_bps} {}

double ChannelTrace::next_capacity_bps() {
  // Sticky three-state Markov chain: 80% stay, 20% move to a neighbor state
  // (reflecting at the ends) — slot-scale coherence like an indoor channel.
  if (rng_.bernoulli(0.2)) {
    if (state_ == 0) {
      state_ = 1;
    } else if (state_ == 2) {
      state_ = 1;
    } else {
      state_ = rng_.bernoulli(0.5) ? 0 : 2;
    }
  }
  // Small lognormal wobble within the state.
  return rates_[state_] * std::exp(rng_.normal(0.0, 0.08));
}

namespace {

/// `base_complete` is decided in bits by the caller: decoded_bps is
/// decodable_bits / slot_s, which rounds below base_layer_bps for a fully
/// delivered base layer at non-dyadic slot lengths (0.07, 0.14, 0.27 s).
double psnr_at_rate(const FgsConfig& cfg, bool base_complete,
                    double decoded_bps) {
  if (!base_complete) {
    // Base layer incomplete: severe degradation, scaled by coverage.
    const double frac = decoded_bps / cfg.base_layer_bps;
    return cfg.psnr_base_db * std::max(0.3, frac);
  }
  const double ratio = decoded_bps / cfg.base_layer_bps;
  return cfg.psnr_base_db +
         cfg.psnr_gain_db_per_doubling * std::log2(ratio + 1e-12);
}

/// One session's slot work order for the batched step below.
struct SlotInput {
  FgsPolicy policy;
  const FgsConfig* cfg;
  dvfs::Processor* cpu;
  double capacity_bps;
  double loss;
  FgsSlotAccum* st;
};

// Batch staging layout: kBatchFields arrays of n doubles carved out of one
// buffer, in FgsSlotBatch field order (16 inputs then 8 outputs).
constexpr std::size_t kBatchFields = 24;

/// A batch of per-client slots in three phases: (A) per-session adaptation
/// in batch order — the DVFS level search, feedback energy debit, and input
/// staging mutate Processor/accumulator state, so they stay scalar and
/// ordered; (B) the slot arithmetic as one exec::simd::fgs_slots call,
/// purely elementwise so each session's numbers are bitwise independent of
/// the batch grouping and the ISA; (C) per-session accumulator mutations in
/// the original process_slot order.  `buf` holds kBatchFields * n doubles,
/// one array per FgsSlotBatch field in declaration order.
void process_slots(std::span<const SlotInput> in, double* buf) {
  const std::size_t n = in.size();
  double* f[kBatchFields];
  for (std::size_t k = 0; k < kBatchFields; ++k) f[k] = buf + k * n;
  exec::simd::FgsSlotBatch b;
  b.n = n;
  b.capacity_bps = f[0];
  b.loss = f[1];
  b.policy_graceful = f[2];
  b.policy_feedback = f[3];
  b.freq_hz = f[4];
  b.total_power_w = f[5];
  b.max_stream_bps = f[6];
  b.base_layer_bps = f[7];
  b.slot_s = f[8];
  b.decode_cycles_per_bit = f[9];
  b.rx_nj_per_bit = f[10];
  b.loss_shed_gain = f[11];
  b.base_only_loss_threshold = f[12];
  b.base_fec_cap = f[13];
  b.max_enhancement_bps = f[14];
  b.loss_ewma = f[15];
  b.shed = f[16];
  b.rx_bits = f[17];
  b.decodable_bits = f[18];
  b.rx_energy_j = f[19];
  b.cpu_decode_energy_j = f[20];
  b.cpu_idle_energy_j = f[21];
  b.load_norm = f[22];
  b.decoded_bps = f[23];

  for (std::size_t i = 0; i < n; ++i) {
    const SlotInput& s = in[i];
    const FgsConfig& cfg = *s.cfg;
    dvfs::Processor& cpu = *s.cpu;
    const double max_stream_bps = cfg.base_layer_bps + cfg.max_enhancement_bps;
    const bool feedback = s.policy == FgsPolicy::kClientFeedback ||
                          s.policy == FgsPolicy::kGracefulDegradation;

    // --- client advertises its decoding aptitude ---
    if (feedback) {
      const double expected_bps = std::min(s.capacity_bps, max_stream_bps);
      const double needed_cycles = expected_bps * cfg.slot_s *
                                   cfg.decode_cycles_per_bit /
                                   cfg.target_normalized_load;
      std::size_t lvl = cpu.num_points() - 1;
      for (std::size_t l = 0; l < cpu.num_points(); ++l) {
        if (cpu.point(l).frequency_hz * cfg.slot_s >= needed_cycles) {
          lvl = l;
          break;
        }
      }
      cpu.set_level(lvl);
      s.st->rx_energy_j += cfg.feedback_tx_nj * 1e-9;  // per-slot feedback
    }
    f[0][i] = s.capacity_bps;
    f[1][i] = s.loss;
    f[2][i] = s.policy == FgsPolicy::kGracefulDegradation ? 1.0 : 0.0;
    f[3][i] = s.policy == FgsPolicy::kClientFeedback ? 1.0 : 0.0;
    f[4][i] = cpu.current().frequency_hz;
    f[5][i] = cpu.model().total_power(cpu.current());
    f[6][i] = max_stream_bps;
    f[7][i] = cfg.base_layer_bps;
    f[8][i] = cfg.slot_s;
    f[9][i] = cfg.decode_cycles_per_bit;
    f[10][i] = cfg.rx_nj_per_bit;
    f[11][i] = cfg.loss_shed_gain;
    f[12][i] = cfg.base_only_loss_threshold;
    f[13][i] = cfg.base_fec_cap;
    f[14][i] = cfg.max_enhancement_bps;
    f[15][i] = s.st->loss_ewma;
  }

  exec::simd::kernels().fgs_slots(b);

  for (std::size_t i = 0; i < n; ++i) {
    const SlotInput& s = in[i];
    const FgsConfig& cfg = *s.cfg;
    FgsSlotAccum& st = *s.st;
    st.rx_bits += b.rx_bits[i];
    st.wasted_bits += b.rx_bits[i] - b.decodable_bits[i];  // incl. FEC copies
    st.rx_energy_j += b.rx_energy_j[i];
    st.cpu_energy_j += b.cpu_decode_energy_j[i];
    st.cpu_energy_j += b.cpu_idle_energy_j[i];
    st.load.add(b.load_norm[i]);
    st.loss.add(s.loss);
    st.shed.add(b.shed[i]);
    const bool base_complete =
        b.decodable_bits[i] >= cfg.base_layer_bps * cfg.slot_s;
    if (!base_complete) ++st.base_misses;
    const double psnr = psnr_at_rate(cfg, base_complete, b.decoded_bps[i]);
    st.psnr.add(psnr);
    st.min_psnr = std::min(st.min_psnr, psnr);
    st.loss_ewma = cfg.loss_ewma_alpha * s.loss +
                   (1.0 - cfg.loss_ewma_alpha) * st.loss_ewma;
    st.last_psnr = psnr;
    st.last_load = b.load_norm[i];
  }
}

/// One client's slot under the given policy, channel share, and loss
/// fraction: a batch of one on stack storage, so the DES per-event path
/// stays allocation-free while sharing the exec::simd kernel with the wave
/// scheduler's big batches (bitwise identical either way — the kernel is
/// elementwise).
void process_slot(FgsPolicy policy, const FgsConfig& cfg,
                  dvfs::Processor& cpu, double capacity_bps, double loss,
                  FgsSlotAccum& st) {
  const SlotInput one{policy, &cfg, &cpu, capacity_bps, loss, &st};
  double buf[kBatchFields];
  process_slots({&one, 1}, buf);
}

FgsReport make_report(const FgsSlotAccum& st, std::size_t slots) {
  FgsReport rep;
  rep.slots = slots;
  rep.mean_psnr_db = st.psnr.mean();
  rep.min_psnr_db = slots ? st.min_psnr : 0.0;
  rep.client_rx_energy_j = st.rx_energy_j;
  rep.client_cpu_energy_j = st.cpu_energy_j;
  rep.client_total_energy_j = st.rx_energy_j + st.cpu_energy_j;
  rep.mean_normalized_load = st.load.count() ? st.load.mean() : 0.0;
  rep.wasted_rx_fraction =
      st.rx_bits > 0.0 ? st.wasted_bits / st.rx_bits : 0.0;
  rep.base_layer_misses = st.base_misses;
  rep.mean_loss = st.loss.count() ? st.loss.mean() : 0.0;
  rep.mean_enhancement_shed = st.shed.count() ? st.shed.mean() : 0.0;
  return rep;
}

}  // namespace

struct FgsBatchScratch::Impl {
  exec::aligned_vector<double> buf;  // kBatchFields arrays of n doubles
  std::vector<SlotInput> inputs;
};

FgsBatchScratch::FgsBatchScratch() : impl_(std::make_unique<Impl>()) {}
FgsBatchScratch::~FgsBatchScratch() = default;
FgsBatchScratch::FgsBatchScratch(FgsBatchScratch&&) noexcept = default;
FgsBatchScratch& FgsBatchScratch::operator=(FgsBatchScratch&&) noexcept =
    default;

FgsSessionFom::FgsSessionFom(FgsPolicy policy, const FgsConfig& cfg,
                             dvfs::Processor& client_cpu,
                             ChannelTrace& channel, std::size_t slots,
                             SlotLossTrace* loss)
    : policy_(policy), cfg_(cfg), cpu_(client_cpu), channel_(channel),
      loss_(loss), slots_(slots) {}

double FgsSessionFom::step() {
  switch (phase_) {
    case FgsFomPhase::kInit:
      if (policy_ == FgsPolicy::kNonAdaptive) {
        cpu_.set_level(cpu_.num_points() - 1);
      }
      if (slots_ == 0) {
        report_ = make_report(accum_, 0);
        phase_ = FgsFomPhase::kDone;
        return kFinished;
      }
      phase_ = FgsFomPhase::kSlot;
      return kAgain;
    case FgsFomPhase::kSlot: {
      // Evaluation order matters for bitwise equivalence with the original
      // loop: the loss cursor advances before the channel draws its RNG.
      const double l = loss_ != nullptr ? loss_->loss_for_slot(slot_) : 0.0;
      process_slot(policy_, cfg_, cpu_, channel_.next_capacity_bps(), l,
                   accum_);
      ++slot_;
      if (slot_ >= slots_) {
        report_ = make_report(accum_, slots_);
        phase_ = FgsFomPhase::kDone;
        return kFinished;
      }
      return cfg_.slot_s;
    }
    case FgsFomPhase::kDone:
      return kFinished;
  }
  return kFinished;  // unreachable
}

void FgsSessionFom::step_batch(std::span<FgsSessionFom* const> sessions,
                               FgsBatchScratch& scratch,
                               std::span<double> delay_out) {
  const std::size_t n = sessions.size();
  assert(delay_out.size() >= n);
  auto& impl = *scratch.impl_;
  impl.buf.resize(kBatchFields * n);
  impl.inputs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    FgsSessionFom& f = *sessions[i];
    assert(f.phase_ == FgsFomPhase::kSlot);
    // Per-session order within the batch matches a DES draining the
    // same-timestamp cohort; per session, the loss cursor advances before
    // the channel draws its RNG (the documented kSlot contract).
    const double l = f.loss_ != nullptr ? f.loss_->loss_for_slot(f.slot_) : 0.0;
    impl.inputs[i] = SlotInput{f.policy_, &f.cfg_, &f.cpu_,
                               f.channel_.next_capacity_bps(), l, &f.accum_};
  }
  process_slots(impl.inputs, impl.buf.data());
  for (std::size_t i = 0; i < n; ++i) {
    FgsSessionFom& f = *sessions[i];
    ++f.slot_;
    if (f.slot_ >= f.slots_) {
      f.report_ = make_report(f.accum_, f.slots_);
      f.phase_ = FgsFomPhase::kDone;
      delay_out[i] = kFinished;
    } else {
      delay_out[i] = f.cfg_.slot_s;
    }
  }
}

const FgsReport& FgsSessionFom::report() const {
  if (phase_ != FgsFomPhase::kDone) {
    throw holms::RuntimeError("FgsSessionFom: report() before done()");
  }
  return report_;
}

FgsReport run_fgs_session(FgsPolicy policy, const FgsConfig& cfg,
                          dvfs::Processor& client_cpu, ChannelTrace& channel,
                          std::size_t slots, SlotLossTrace* loss) {
  FgsSessionFom fom(policy, cfg, client_cpu, channel, slots, loss);
  while (!fom.done()) fom.step();
  return fom.report();
}

AdhocReport run_fgs_adhoc(FgsPolicy policy, const FgsConfig& cfg,
                          std::vector<dvfs::Processor>& clients,
                          ChannelTrace& shared_channel, std::size_t slots,
                          SlotLossTrace* loss) {
  AdhocReport rep;
  if (clients.empty()) return rep;
  if (policy == FgsPolicy::kNonAdaptive) {
    for (auto& c : clients) c.set_level(c.num_points() - 1);
  }
  std::vector<FgsSlotAccum> states(clients.size());
  std::vector<SlotInput> inputs(clients.size());
  exec::aligned_vector<double> buf(kBatchFields * clients.size());
  for (std::size_t s = 0; s < slots; ++s) {
    // Fair medium share: every active stream gets capacity / N this slot
    // (every multimedia host also forwards/receives, §4.2 — here they all
    // contend for the same spectrum).  The whole slot is one batched
    // exec::simd call across the clients — bitwise identical to the old
    // per-client loop because the kernel is elementwise.
    const double share = shared_channel.next_capacity_bps() /
                         static_cast<double>(clients.size());
    const double l = loss != nullptr ? loss->loss_for_slot(s) : 0.0;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      inputs[c] = SlotInput{policy, &cfg, &clients[c], share, l, &states[c]};
    }
    process_slots(inputs, buf.data());
  }
  rep.min_psnr_db = std::numeric_limits<double>::infinity();
  sim::OnlineStats psnr;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    rep.per_client.push_back(make_report(states[c], slots));
    rep.total_client_energy_j += rep.per_client.back().client_total_energy_j;
    psnr.add(rep.per_client.back().mean_psnr_db);
    rep.min_psnr_db =
        std::min(rep.min_psnr_db, rep.per_client.back().min_psnr_db);
  }
  rep.mean_psnr_db = psnr.mean();
  if (slots == 0) rep.min_psnr_db = 0.0;
  return rep;
}

}  // namespace holms::streaming
