package tsdb

import (
	"bytes"
	"testing"
)

// FuzzTSDBRead: Read never panics on any input, and a dump it accepts,
// written back and read again, writes the same bytes.
func FuzzTSDBRead(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"cap":4,"series":[]}`,
		`{"v":1,"cap":4,"series":[{"name":"a.p95","start":3,"samples":[{"e":3,"v":0.30000000000000004},{"e":4,"v":0.4},{"e":5,"v":0.5},{"e":6,"v":0.6000000000000001}]},{"name":"b","samples":[{"e":0,"v":123.456789}]}]}`,
		`{"v":1,"cap":9223372036854775807,"series":[{"name":"a","start":0,"samples":[]}]}`,
		`{"v":1,"cap":1,"series":[{"name":"a","samples":[{"e":0,"v":1},{"e":1,"v":2}]}]}`,
		`{"v":1,"cap":2,"series":[{"name":"z","samples":[{"e":1,"v":-0}]},{"name":"z","start":18446744073709551615,"samples":[{"e":2,"v":1e300}]}]}`,
		`{"v":99,"cap":4,"series":[]}`,
		`nope`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := db.Write(&first); err != nil {
			t.Fatalf("Write of an accepted dump: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejected its own dump: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatalf("Write of a re-read dump: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("dump changed on a second round trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
