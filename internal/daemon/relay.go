// Relay feed sessions: the daemon side of the relay tier. A relay
// introduces itself like any client (Hello), then sends RelaySub with a
// channel bitmask instead of subscribing queries. From that point the
// session is a feed: its one queue is attached to every masked channel
// and its one writer pumps the shared encode-once answer frames onto the
// relay's connection, so the bytes a relay re-fans out downstream are
// identical to what a direct client would have received — sequence
// numbers included.
//
// The relay's own downstream clients stay first-class citizens of the
// root's planning problem: their Hello/Subscribe/Unsubscribe/Refresh/Bye
// frames arrive wrapped in TypeRelayCtl and go through the same control
// function as a direct client's, registered under the client's global id
// with the feed session as owner, and their per-cycle channel assignments
// travel back as wrapped Assigned frames in the feed's queue. Only the
// data plane is deduplicated — each answer frame crosses the daemon→relay
// link once, no matter how many downstream sessions subscribe to its
// channel.
package daemon

import (
	"fmt"

	"qsub/internal/fanout"
	"qsub/internal/wire"
)

// upgradeFeed turns a session into a relay feed of the masked channels.
func (d *Daemon) upgradeFeed(sess *fanout.Session, rs wire.RelaySub) error {
	channels := wire.MaskChannels(rs.Mask, d.net.Channels())
	if len(channels) == 0 {
		sess.Push(wire.TypeError, wire.MarshalError(wire.Error{Msg: "relay subscription selects no channels"}))
		sess.Finish()
		return fmt.Errorf("daemon: relay %d subscribed an empty channel set", sess.ClientID)
	}
	if err := sess.Feed(d.net, channels); err != nil {
		return fmt.Errorf("daemon: relay %d feed: %w", sess.ClientID, err)
	}
	d.logf("daemon: relay %d feeding %d channels", sess.ClientID, len(channels))
	// The ack is queued after the feed is live: frames published after
	// the relay reads it are guaranteed to reach the relay.
	sess.Push(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: 1, Channels: d.net.Channels()}))
	return nil
}
