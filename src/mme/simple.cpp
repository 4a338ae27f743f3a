#include "mme/simple.h"

#include "common/logging.h"

namespace scale::mme {

namespace {
/// LB CPU time to route an Initial UE message (table lookup or insert).
constexpr Duration kRouteCost = Duration::us(30);
/// LB CPU time to relay any other message to or from a VM.
constexpr Duration kRelayCost = Duration::us(20);
}  // namespace

// ------------------------------------------------------------------ SimpleVm

void SimpleVm::on_procedure_done(UeContext& ctx, proto::ProcedureType type) {
  (void)type;
  if (buddy_ != 0 && ctx.role == ContextRole::kMaster)
    push_replica(buddy_, ctx.rec, /*geo=*/false);
}

void SimpleVm::on_idle_transition(UeContext& ctx) {
  if (buddy_ != 0 && ctx.role == ContextRole::kMaster)
    push_replica(buddy_, ctx.rec, /*geo=*/false);
}

void SimpleVm::on_detach(UeContext& ctx) {
  if (buddy_ != 0) {
    proto::ReplicaDelete del;
    del.guti = ctx.rec.guti;
    send_direct(buddy_, proto::ClusterMessage{del});
  }
}

// ------------------------------------------------------------------ SimpleLb

SimpleLb::SimpleLb(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(cfg), node_(fabric.add_endpoint(this)),
      cpu_(fabric.engine(), cfg.cpu_speed) {}

SimpleLb::~SimpleLb() { fabric_.remove_endpoint(node_); }

void SimpleLb::add_vm(SimpleVm& vm) {
  vms_.push_back(VmEntry{&vm, vm.node(), vm.vm_code(), 0.0});
  vm.attach_lb(node_);
  // Re-wire pairwise buddies ring-style.
  for (std::size_t i = 0; i < vms_.size(); ++i)
    vms_[i].vm->set_buddy(vms_[(i + 1) % vms_.size()].node);
}

proto::Guti SimpleLb::allocate_guti() {
  proto::Guti g;
  g.plmn = cfg_.plmn;
  g.mme_group = cfg_.mme_group;
  g.mme_code = cfg_.mme_code;
  g.m_tmsi = next_tmsi_++;
  return g;
}

std::size_t SimpleLb::pick_vm_for_new_device() {
  SCALE_CHECK_MSG(!vms_.empty(), "SIMPLE LB has no VMs");
  const std::size_t idx = next_rr_ % vms_.size();
  ++next_rr_;
  return idx;
}

SimpleLb::VmEntry* SimpleLb::by_code(std::uint8_t code) {
  for (auto& e : vms_)
    if (e.code == code) return &e;
  return nullptr;
}

SimpleLb::VmEntry* SimpleLb::by_node(NodeId node) {
  for (auto& e : vms_)
    if (e.node == node) return &e;
  return nullptr;
}

void SimpleLb::forward_to(std::size_t vm_index, NodeId origin,
                          const proto::Guti& guti, proto::Pdu inner) {
  proto::ClusterForward fwd;
  fwd.origin = origin;
  fwd.guti = guti;
  fwd.inner = proto::box(std::move(inner));
  fabric_.send(node_, vms_.at(vm_index).node,
               proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
}

void SimpleLb::route_initial(NodeId from, const proto::InitialUeMessage& msg) {
  // Resolve the device's GUTI the same way the MLB does.
  proto::Guti guti;
  if (const auto* a = std::get_if<proto::NasAttachRequest>(&msg.nas)) {
    guti = (a->old_guti && a->old_guti->mme_group == cfg_.mme_group)
               ? *a->old_guti
               : allocate_guti();
  } else if (const auto* s = std::get_if<proto::NasServiceRequest>(&msg.nas)) {
    guti = proto::Guti{cfg_.plmn, cfg_.mme_group, s->mme_code, s->m_tmsi};
  } else if (const auto* t = std::get_if<proto::NasTauRequest>(&msg.nas)) {
    guti = t->guti;
  } else if (const auto* d = std::get_if<proto::NasDetachRequest>(&msg.nas)) {
    guti = d->guti;
  } else {
    return;
  }

  std::size_t primary;
  const auto it = table_.find(guti.key());
  if (it != table_.end()) {
    primary = it->second % vms_.size();
  } else {
    primary = pick_vm_for_new_device();
    table_[guti.key()] = primary;  // the per-device table grows forever
  }
  // Pairwise spill-over: primary unless overloaded, then THE buddy.
  std::size_t chosen = primary;
  if (vms_[primary].load > cfg_.overload_threshold && vms_.size() > 1)
    chosen = (primary + 1) % vms_.size();
  forward_to(chosen, from, guti, proto::make_pdu(msg));
}

void SimpleLb::receive(NodeId from, const proto::Pdu& pdu) {
  std::visit(
      [this, from](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, proto::S1apMessage>) {
          if (const auto* init =
                  std::get_if<proto::InitialUeMessage>(&family)) {
            const proto::InitialUeMessage msg = *init;
            cpu_.execute(kRouteCost,
                         [this, from, msg]() { route_initial(from, msg); });
            return;
          }
          // Active-mode stickiness: route on the VM code embedded in the
          // MME-side identifier.
          std::uint8_t code = 0;
          if (const auto* u = std::get_if<proto::UplinkNasTransport>(&family))
            code = u->mme_ue_id.mmp_id();
          else if (const auto* p =
                       std::get_if<proto::PathSwitchRequest>(&family))
            code = p->mme_ue_id.mmp_id();
          else if (const auto* r =
                       std::get_if<proto::InitialContextSetupResponse>(
                           &family))
            code = r->mme_ue_id.mmp_id();
          else if (const auto* c =
                       std::get_if<proto::UeContextReleaseComplete>(&family))
            code = c->mme_ue_id.mmp_id();
          const proto::S1apMessage msg = family;
          cpu_.execute(kRelayCost, [this, from, code, msg]() {
            VmEntry* vm = by_code(code);
            if (vm == nullptr) return;
            proto::ClusterForward fwd;
            fwd.origin = from;
            fwd.inner = proto::box(proto::Pdu{msg});
            fabric_.send(node_, vm->node,
                         proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
          });
        } else if constexpr (std::is_same_v<T, proto::S11Message>) {
          std::uint8_t code = 0;
          std::visit(
              [&code](const auto& m) {
                if constexpr (requires { m.mme_teid; })
                  code = m.mme_teid.owner_id();
              },
              family);
          const proto::S11Message msg = family;
          cpu_.execute(kRelayCost, [this, from, code, msg]() {
            VmEntry* vm = by_code(code);
            if (vm == nullptr) return;
            proto::ClusterForward fwd;
            fwd.origin = from;
            fwd.inner = proto::box(proto::Pdu{msg});
            fabric_.send(node_, vm->node,
                         proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
          });
        } else if constexpr (std::is_same_v<T, proto::S6Message>) {
          std::uint32_t hop = 0;
          if (const auto* a = std::get_if<proto::AuthInfoAnswer>(&family))
            hop = a->hop_ref;
          else if (const auto* u =
                       std::get_if<proto::UpdateLocationAnswer>(&family))
            hop = u->hop_ref;
          const proto::S6Message msg = family;
          cpu_.execute(kRelayCost, [this, from, hop, msg]() {
            VmEntry* vm = by_node(hop);
            if (vm == nullptr) return;
            proto::ClusterForward fwd;
            fwd.origin = from;
            fwd.inner = proto::box(proto::Pdu{msg});
            fabric_.send(node_, vm->node,
                         proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
          });
        } else if constexpr (std::is_same_v<T, proto::ClusterMessage>) {
          if (const auto* reply = std::get_if<proto::ClusterReply>(&family)) {
            SCALE_CHECK(reply->inner != nullptr);
            const NodeId target = reply->target;
            const proto::PduRef inner = reply->inner;
            cpu_.execute(kRelayCost, [this, target, inner]() {
              fabric_.send(node_, target, inner->value);
            });
          } else if (const auto* load =
                         std::get_if<proto::LoadReport>(&family)) {
            VmEntry* vm = by_node(load->mmp_node);
            if (vm != nullptr) vm->load = load->cpu_util;
          }
        }
      },
      pdu);
}

}  // namespace scale::mme
