#ifndef MMCONF_STREAM_DRIVE_H_
#define MMCONF_STREAM_DRIVE_H_

#include <cstddef>
#include <vector>

#include "common/clock.h"
#include "net/network.h"
#include "net/reliable.h"

namespace mmconf::stream {

/// One owner of stream traffic on a shared ReliableTransport: an
/// interaction server (its rooms' schedulers) or a broadcast session
/// (its edge relays' schedulers). DriveUntilIdle pumps participants
/// through exactly these four calls.
class DriveParticipant {
 public:
  /// Folds acked/failed messages into stream accounting.
  virtual void ObserveAcks() = 0;
  /// Plays due objects and admits due chunks; returns chunks sent.
  virtual size_t Pump(MicrosT now) = 0;
  /// Earliest strictly-future time the participant wants to act; -1
  /// when only wire arrivals can unblock it.
  virtual MicrosT NextActionAt(MicrosT now) const = 0;
  /// True when the delivery was this participant's and is consumed.
  virtual bool OnDelivery(const net::Delivery& delivery) = 0;

 protected:
  ~DriveParticipant() = default;  // never owned through this interface
};

/// The one loop that pumps stream traffic (DESIGN.md §9); nothing else
/// may pump a transport several participants share, or it would swallow
/// their deliveries. Each round
///   1. observes acks and pumps every participant at the current time,
///      so a freshly opened stream sends its first chunk at once;
///   2. advances the transport to the earliest participant wake-up, or
///      until idle when none is pending;
///   3. offers each delivery to the participants in list order; the
///      first that consumes it wins.
/// Returns once the transport and network are idle, nothing was sent
/// and nothing is scheduled — after a last ObserveAcks, so every
/// participant has seen the outcome of its final pump. Unconsumed
/// deliveries come back in arrival order.
std::vector<net::Delivery> DriveUntilIdle(
    net::ReliableTransport* transport,
    const std::vector<DriveParticipant*>& participants);

}  // namespace mmconf::stream

#endif  // MMCONF_STREAM_DRIVE_H_
