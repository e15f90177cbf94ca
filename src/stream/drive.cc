#include "stream/drive.h"

#include <utility>

namespace mmconf::stream {

std::vector<net::Delivery> DriveUntilIdle(
    net::ReliableTransport* transport,
    const std::vector<DriveParticipant*>& participants) {
  net::Network* network = transport->network();
  std::vector<net::Delivery> passthrough;
  while (true) {
    MicrosT now = network->clock()->NowMicros();
    size_t sent = 0;
    for (DriveParticipant* participant : participants) {
      participant->ObserveAcks();
      sent += participant->Pump(now);
    }
    MicrosT wake = -1;
    for (DriveParticipant* participant : participants) {
      MicrosT at = participant->NextActionAt(now);
      if (at >= 0 && (wake < 0 || at < wake)) wake = at;
    }
    if (wake < 0 && sent == 0 && transport->in_flight() == 0 &&
        network->pending() == 0) {
      break;
    }
    std::vector<net::Delivery> batch = wake >= 0
                                           ? transport->AdvanceTo(wake)
                                           : transport->AdvanceUntilIdle();
    for (net::Delivery& delivery : batch) {
      bool consumed = false;
      for (DriveParticipant* participant : participants) {
        if (participant->OnDelivery(delivery)) {
          consumed = true;
          break;
        }
      }
      if (!consumed) passthrough.push_back(std::move(delivery));
    }
  }
  // The last pump may have resolved streams (played their final object);
  // let every participant fold that in before the caller reads stats.
  for (DriveParticipant* participant : participants) {
    participant->ObserveAcks();
  }
  return passthrough;
}

}  // namespace mmconf::stream
