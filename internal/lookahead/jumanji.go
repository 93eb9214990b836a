package lookahead

import (
	"fmt"
	"math"
)

// BankGranularRequest builds the JumanjiLookahead request for one VM's
// combined batch miss curve (Sec. VI-D), without the curve: given that the
// VM's latency-critical applications already hold latBytes, the VM's
// *total* allocation must land on a whole number of banks, so feasible
// batch sizes are k×bank − latBytes for integer k ≥ ceil(latBytes/bank).
// The caller sets Curve once CanGrow says lookahead will read it.
//
// For example, with 1 MB banks and a 1.3 MB latency-critical reservation,
// the batch allocation may be 0.7, 1.7, 2.7, ... banks' worth of bytes —
// exactly the paper's example.
func BankGranularRequest(latBytes, bankBytes float64) Request {
	if bankBytes <= 0 {
		panic("lookahead: non-positive bank size")
	}
	if latBytes < 0 {
		panic(fmt.Sprintf("lookahead: negative latency-critical size %g", latBytes))
	}
	kMin := math.Ceil(latBytes/bankBytes - 1e-9)
	min := kMin*bankBytes - latBytes
	if min < 0 {
		min = 0
	}
	return Request{Min: min, Step: bankBytes}
}
