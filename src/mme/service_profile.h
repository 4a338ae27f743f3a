// CPU cost model for MME procedure processing.
//
// §2 lists the computational tasks an MME runs per request (protocol
// parsing, authentication, authorization, mobility management, paging,
// S-GW load-balancing, CDR generation...). We charge each procedure step a
// fixed CPU slice, calibrated once so a 1-vCPU MME VM saturates at roughly
// 700–900 attaches/s — the same order as the OpenEPC measurements behind
// Fig. 2(a). Absolute values are not the point; the knee-and-blowup shape
// and the *relative* costs (attach > handover > service request > TAU) are.
#pragma once

#include "common/time.h"

namespace scale::mme {

struct ServiceProfile {
  /// Per-message protocol parsing (S1AP/NAS decode, context lookup).
  static constexpr Duration parse = Duration::us(60);

  // Attach pipeline (§2(a)): context creation, EPS-AKA check, NAS security
  // establishment, S11 session management.
  static constexpr Duration attach_ctx = Duration::us(250);
  static constexpr Duration auth_check = Duration::us(180);
  static constexpr Duration security_setup = Duration::us(120);
  static constexpr Duration session_mgmt = Duration::us(200);

  // Service Request (Idle→Active): auth-light restore + bearer modify.
  static constexpr Duration service_restore = Duration::us(200);
  static constexpr Duration service_finalize = Duration::us(100);

  // Handover path switch (§2(d)).
  static constexpr Duration path_switch = Duration::us(250);
  static constexpr Duration handover_finish = Duration::us(150);

  // Idle-mode procedures.
  static constexpr Duration tau = Duration::us(150);
  static constexpr Duration paging = Duration::us(100);
  static constexpr Duration detach = Duration::us(150);
  static constexpr Duration idle_release = Duration::us(100);

  // State movement: serialize + send, validate + install, the master's
  // async replica push and the replica-side install.
  static constexpr Duration state_transfer_tx = Duration::us(150);
  static constexpr Duration state_transfer_rx = Duration::us(200);
  static constexpr Duration replica_push = Duration::us(60);
  static constexpr Duration replica_apply = Duration::us(80);

  /// Active → Idle inactivity timeout (the paper's devices "make frequent
  /// transitions to Idle mode to reduce battery usage").
  Duration inactivity_timeout = Duration::sec(5.0);
};

}  // namespace scale::mme
