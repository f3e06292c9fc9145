// Relay admin endpoint: the same handler a root daemon serves
// (daemon.NewAdminMux), with the /statusz document carrying a relay
// stanza instead of a plan summary, so qsubtop pointed at a relay shows
// the upstream link next to the fan-out throughput.
package relay

import (
	"net/http"

	"qsub/internal/daemon"
)

// Status collects the relay's /statusz document. It reuses the daemon's
// Status type — channel count, session count, laggards, metrics snapshot
// — with the Relay stanza filled and no plan (relays do not plan). A
// relay has no publish cycle to hang the lag sweep on, so the fleet lag
// gauges are refreshed here, by the reader.
func (r *Relay) Status() daemon.Status {
	r.hub.UpdateLagWatermarks()
	st := daemon.Status{
		Sessions: r.hub.Len(),
		Laggards: r.hub.TopLaggards(daemon.StatusLaggards),
		Metrics:  r.metrics.Snapshot(),
		Build:    daemon.ReadBuild(),
	}
	info := &daemon.RelayInfo{Upstream: r.cfg.Upstream, Clients: r.hub.Clients()}
	r.mu.Lock()
	info.Hop, info.Connected = r.hop, r.connected
	if r.connects > 0 {
		info.Reconnects = uint64(r.connects - 1)
	}
	if r.net != nil {
		st.Channels = r.net.Channels()
	}
	info.Channels = st.Channels
	if len(r.cfg.Channels) > 0 {
		info.Channels = len(r.cfg.Channels)
	}
	r.mu.Unlock()
	st.Relay = info
	return st
}

// AdminMux builds the relay's admin HTTP handler.
func (r *Relay) AdminMux() *http.ServeMux {
	return daemon.NewAdminMux(r.Status, r.metrics.Registry, r.logf)
}
