#include "mme/dmme.h"

#include "common/logging.h"

namespace scale::mme {

namespace {
/// Store CPU time to serve one context fetch.
constexpr Duration kFetchCost = Duration::us(120);
/// Store CPU time to absorb one write-back or delete.
constexpr Duration kWriteCost = Duration::us(150);
/// LB CPU time to route an Initial UE message (round-robin pick).
constexpr Duration kRouteCost = Duration::us(25);
/// LB CPU time to relay any other message to or from a node.
constexpr Duration kRelayCost = Duration::us(20);
}  // namespace

// ------------------------------------------------------------- DmmeStateStore

DmmeStateStore::DmmeStateStore(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), node_(fabric.add_endpoint(this)),
      cpu_(fabric.engine(), cfg.cpu_speed) {}

DmmeStateStore::~DmmeStateStore() { fabric_.remove_endpoint(node_); }

void DmmeStateStore::receive(NodeId from, const proto::Pdu& pdu) {
  const auto* cluster = std::get_if<proto::ClusterMessage>(&pdu);
  if (cluster == nullptr) {
    SCALE_WARN("state store received non-cluster PDU");
    return;
  }
  if (const auto* fetch = std::get_if<proto::StateFetch>(cluster)) {
    const proto::Guti guti = fetch->guti;
    cpu_.execute(kFetchCost, [this, from, guti]() {
      ++fetches_;
      proto::StateFetchResp resp;
      resp.guti = guti;
      const auto* ctx = store_.find(guti.key());
      if (ctx != nullptr) {
        resp.found = true;
        resp.rec = ctx->rec;
      }
      fabric_.send(node_, from, proto::pdu_of(proto::ClusterMessage{resp}));
    });
  } else if (const auto* write = std::get_if<proto::StateTransfer>(cluster)) {
    const proto::UeContextRecord rec = write->rec;
    cpu_.execute(kWriteCost, [this, rec]() {
      ++writes_;
      auto* existing = store_.find(rec.guti.key());
      if (existing != nullptr) {
        if (rec.version >= existing->rec.version) existing->rec = rec;
      } else {
        store_.insert(rec, epc::ContextRole::kMaster);
      }
    });
  } else if (const auto* del = std::get_if<proto::ReplicaDelete>(cluster)) {
    const std::uint64_t key = del->guti.key();
    cpu_.execute(kWriteCost, [this, key]() {
      if (store_.contains(key)) store_.erase(key);
    });
  } else {
    SCALE_DEBUG("state store ignoring " << proto::cluster_name(*cluster));
  }
}

// ------------------------------------------------------------------- DmmeNode

DmmeNode::DmmeNode(epc::Fabric& fabric, Config cfg)
    : ClusterVm(fabric, cfg.base), store_(cfg.store) {
  SCALE_CHECK_MSG(store_ != 0, "dMME node needs a state store");
}

void DmmeNode::handle_forward(NodeId from, const proto::ClusterForward& fwd) {
  SCALE_CHECK_MSG(fwd.inner != nullptr, "forward without payload");
  const auto* s1ap = std::get_if<proto::S1apMessage>(&fwd.inner->value);
  const bool initial =
      s1ap != nullptr &&
      std::holds_alternative<proto::InitialUeMessage>(*s1ap);

  if (initial && fwd.guti.valid()) {
    const std::uint64_t key = fwd.guti.key();
    if (app().store().find(key) == nullptr) {
      // Stateless node: the context (if any) lives in the central store.
      // Park the request and fetch — this round trip is dMME's cost.
      auto& queue = pending_[key];
      queue.push_back(fwd);
      if (queue.size() == 1) {
        ++fetches_issued_;
        proto::StateFetch fetch;
        fetch.guti = fwd.guti;
        fabric_.send(node(), store_,
                     proto::pdu_of(proto::ClusterMessage{fetch}));
      }
      return;
    }
  }
  dispatch_inner(fwd.origin, fwd.inner->value,
                 fwd.guti.valid() ? &fwd.guti : nullptr);
  (void)from;
}

void DmmeNode::handle_other_cluster(NodeId from,
                                    const proto::ClusterMessage& msg) {
  (void)from;
  const auto* resp = std::get_if<proto::StateFetchResp>(&msg);
  if (resp == nullptr) {
    SCALE_DEBUG("dMME node ignoring " << proto::cluster_name(msg));
    return;
  }
  const std::uint64_t key = resp->guti.key();
  if (resp->found) app().adopt(resp->rec, epc::ContextRole::kMaster);
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  std::deque<proto::ClusterForward> queued = std::move(it->second);
  pending_.erase(it);
  // Not found → dispatch anyway: an attach creates the context, anything
  // else is rejected by the MmeApp (device unknown network-wide).
  for (const auto& fwd : queued)
    dispatch_inner(fwd.origin, fwd.inner->value,
                   fwd.guti.valid() ? &fwd.guti : nullptr);
}

void DmmeNode::write_back(const UeContext& ctx) {
  ++writebacks_;
  proto::StateTransfer write;
  write.rec = ctx.rec;
  fabric_.send(node(), store_, proto::pdu_of(proto::ClusterMessage{write}));
}

void DmmeNode::on_procedure_done(UeContext& ctx, proto::ProcedureType type) {
  (void)type;
  write_back(ctx);
}

void DmmeNode::on_idle_transition(UeContext& ctx) {
  // Write the final state back and drop the local copy: the node stays
  // stateless between a device's Active periods.
  write_back(ctx);
  const std::uint64_t key = ctx.key();
  fabric_.engine().after(Duration::zero(),
                         [this, key]() { app().remove_context(key); });
}

void DmmeNode::on_detach(UeContext& ctx) {
  proto::ReplicaDelete del;
  del.guti = ctx.rec.guti;
  fabric_.send(node(), store_, proto::pdu_of(proto::ClusterMessage{del}));
}

// --------------------------------------------------------------------- DmmeLb

DmmeLb::DmmeLb(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(cfg), node_(fabric.add_endpoint(this)),
      cpu_(fabric.engine(), cfg.cpu_speed) {}

DmmeLb::~DmmeLb() { fabric_.remove_endpoint(node_); }

void DmmeLb::add_node(DmmeNode& node) {
  nodes_.emplace_back(node.node(), node.vm_code());
  node.attach_lb(node_);
}

proto::Guti DmmeLb::allocate_guti() {
  proto::Guti g;
  g.plmn = cfg_.plmn;
  g.mme_group = cfg_.mme_group;
  g.mme_code = cfg_.mme_code;
  g.m_tmsi = next_tmsi_++;
  return g;
}

NodeId DmmeLb::by_code(std::uint8_t code) const {
  for (const auto& [node, c] : nodes_)
    if (c == code) return node;
  return 0;
}

void DmmeLb::forward(NodeId target, NodeId origin, const proto::Guti& guti,
                     proto::Pdu inner) {
  proto::ClusterForward fwd;
  fwd.origin = origin;
  fwd.guti = guti;
  fwd.inner = proto::box(std::move(inner));
  fabric_.send(node_, target,
               proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
}

void DmmeLb::receive(NodeId from, const proto::Pdu& pdu) {
  std::visit(
      [this, from](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, proto::S1apMessage>) {
          if (const auto* init =
                  std::get_if<proto::InitialUeMessage>(&family)) {
            const proto::InitialUeMessage msg = *init;
            cpu_.execute(kRouteCost, [this, from, msg]() {
              SCALE_CHECK_MSG(!nodes_.empty(), "dMME LB has no nodes");
              proto::Guti guti;
              if (const auto* a =
                      std::get_if<proto::NasAttachRequest>(&msg.nas)) {
                guti = (a->old_guti &&
                        a->old_guti->mme_group == cfg_.mme_group)
                           ? *a->old_guti
                           : allocate_guti();
              } else if (const auto* s =
                             std::get_if<proto::NasServiceRequest>(&msg.nas)) {
                guti = proto::Guti{cfg_.plmn, cfg_.mme_group, s->mme_code,
                                   s->m_tmsi};
              } else if (const auto* t =
                             std::get_if<proto::NasTauRequest>(&msg.nas)) {
                guti = t->guti;
              } else if (const auto* d =
                             std::get_if<proto::NasDetachRequest>(&msg.nas)) {
                guti = d->guti;
              } else {
                return;
              }
              // Any node can serve any device: plain round robin.
              const NodeId target = nodes_[next_rr_++ % nodes_.size()].first;
              forward(target, from, guti, proto::make_pdu(msg));
            });
            return;
          }
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
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, code, copy]() {
            const NodeId target = by_code(code);
            if (target != 0) forward(target, from, proto::Guti{}, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::S11Message>) {
          std::uint8_t code = 0;
          std::visit(
              [&code](const auto& m) {
                if constexpr (requires { m.mme_teid; })
                  code = m.mme_teid.owner_id();
              },
              family);
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, code, copy]() {
            const NodeId target = by_code(code);
            if (target != 0) forward(target, from, proto::Guti{}, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::S6Message>) {
          std::uint32_t hop = 0;
          if (const auto* a = std::get_if<proto::AuthInfoAnswer>(&family))
            hop = a->hop_ref;
          else if (const auto* u =
                       std::get_if<proto::UpdateLocationAnswer>(&family))
            hop = u->hop_ref;
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, hop, copy]() {
            if (hop != 0 && fabric_.is_registered(hop))
              forward(hop, from, proto::Guti{}, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::ClusterMessage>) {
          if (const auto* reply = std::get_if<proto::ClusterReply>(&family)) {
            SCALE_CHECK(reply->inner != nullptr);
            const NodeId target = reply->target;
            const proto::PduRef inner = reply->inner;
            cpu_.execute(kRelayCost, [this, target, inner]() {
              fabric_.send(node_, target, inner->value);
            });
          }
          // LoadReports: the round-robin LB has no use for them.
        }
      },
      pdu);
}

}  // namespace scale::mme
