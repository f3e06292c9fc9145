// Names the benchmark module still reaches through this package after
// they moved to internal/netclient and internal/admin. ROADMAP item 12
// deletes this file when it edits benchmark/; nothing else uses it.
package daemon

import (
	"qsub/internal/admin"
	"qsub/internal/netclient"
)

type (
	Conn        = netclient.Conn
	Event       = netclient.Event
	CycleRecord = admin.CycleRecord
)

func Dial(addr string, clientID int) (*Conn, error) { return netclient.Dial(addr, clientID) }
