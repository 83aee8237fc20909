package transport

import "mpdp/internal/invariant"

// Verifier is the wire-path invariant checker: the one stream checker,
// fed by the sender (NoteSent) and the receiver (NoteDelivered).
type Verifier = invariant.Stream

// NewVerifier returns an empty checker.
func NewVerifier() *Verifier { return invariant.NewStream() }
