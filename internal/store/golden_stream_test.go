package store

// The golden pins name the subscription registration, the stream
// encoder and the stream-only kinds through these, so golden_test.go
// reads the same wherever the codec lives.

type goldenSubRec = SubscriptionRec

const (
	heartbeatKind = HeartbeatKind
	gapKind       = GapKind
)

// streamFrame is the replication stream's encoding of one record.
func streamFrame(kind byte, lsn uint64, body []byte) []byte {
	return AppendFrame(nil, Record{Kind: kind, LSN: lsn, Body: body})
}
