package feed

import (
	"math"
	"slices"
	"testing"
)

// FuzzParseLine drives the change-line decoder — every line a -follow tail
// reads and every line of a POST /v1/relations/{name}/changes body — with
// arbitrary text. The invariants: ParseLine returns a change or an error,
// never panics; an accepted change holds only finite values; and an accepted
// change round-trips through its NDJSON wire shape (MarshalJSON → ParseLine)
// into an equal change, so what a connector re-emits means the same mutation.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		`{"op":"insert","relation":"hotels","id":7,"vals":[0.2,0.3],"joinKey":4}`,
		`{"op":"delete","relation":"hotels","id":7}`,
		`{"seq":9,"op":"insert","id":-1,"vals":[]}`,
		`{"op":"insert","id":1,"vals":[1e999]}`, // overlong value
		`{"op":"upsert","id":1}`,
		`{"op":"insert","id":1e30}`,
		"insert,hotels,7,4,0.2,0.3",
		"  insert, hotels, 7, 4, 0.2, 0.3  ",
		"delete,flights,12",
		"insert,r,1,1,NaN",
		"insert,r,1,1,+Inf,2",
		"insert,r,1,1,-inf",
		"insert,r,1,1,1e999", // overlong value
		"insert,r,1,1,0x1p-2",
		"insert,r,99999999999999999999,1,2",
		"insert,\xff\xfe,1,1,2", // invalid UTF-8 relation name
		"delete,r,1,extra",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseLine(line)
		if err != nil {
			return
		}
		if c.Op != OpInsert && c.Op != OpDelete {
			t.Fatalf("accepted unknown op %d from %q", c.Op, line)
		}
		for _, v := range c.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v from %q", v, line)
			}
		}
		b, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted change %+v from %q does not marshal: %v", c, line, err)
		}
		back, err := ParseLine(string(b))
		if err != nil {
			t.Fatalf("wire shape %s of %q does not parse: %v", b, line, err)
		}
		if back.Seq != c.Seq || back.Relation != c.Relation || back.Op != c.Op ||
			back.ID != c.ID || back.JoinKey != c.JoinKey || !slices.Equal(back.Vals, c.Vals) {
			t.Fatalf("round trip of %q via %s: %+v != %+v", line, b, back, c)
		}
	})
}
