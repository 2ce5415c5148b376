package core

import (
	"strings"

	"graphtrek/internal/repl"
)

// Replication / routing error sentinels, minted by the replication machine.
// They travel as message text, so classification matches on their strings.
var (
	// ErrWrongEpoch fences a stale primary: a replica with a newer epoch
	// for the partition rejected its write or append.
	ErrWrongEpoch = repl.ErrWrongEpoch
	// ErrPartitionMoved rejects work routed with a stale table: the
	// partition's primary is now another server. The sender refreshes its
	// route view and retries.
	ErrPartitionMoved = repl.ErrPartitionMoved
)

// terminalMarks are the substrings of errors no retry can fix: a malformed
// plan stays malformed, a client-cancelled traversal stays cancelled, and
// an unbound client cannot reach anything. Everything else — backpressure
// (sched.ErrBackpressure via the admission "retry later" text), suspected
// peers, inactivity timeouts, epoch fences, moved partitions, transport
// failures — is transient cluster state that a restarted attempt can land
// around, so retryability defaults to true.
var terminalMarks = []string{
	"query:",                        // plan compile/decode errors
	"traversal cancelled by client", // Handle.Cancel
	"client not bound",              // local misconfiguration
	"cannot run asynchronously",     // mode misuse
	"replication is not enabled",    // Write without a route table
}

// Retryable classifies a traversal or write error as transient (worth a
// fresh attempt) or terminal. This is the single retry policy: client
// submit loops and the bench harness consult it instead of inspecting
// error text at call sites.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	for _, m := range terminalMarks {
		if strings.Contains(msg, m) {
			return false
		}
	}
	return true
}
