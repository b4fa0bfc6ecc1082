package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzDecodeJobSpec drives the strict job-spec decoder with arbitrary
// request bodies. Properties: it never panics; whatever it accepts survives
// a marshal/decode round trip unchanged (so an admitted spec is exactly what
// the server will journal and execute); every rejection wraps ErrBadJobSpec;
// and an accepted spec always re-validates.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add(`{"dataset":"ds_0011223344556677"}`)
	f.Add(`{"dataset":"ds_0011223344556677","config":{"k":4,"sigma":3,"alpha":0.9}}`)
	f.Add(`{"dataset":"d","config":{"max_level":2,"block_size":16,"priority":true},"evaluator":"dist","timeout_ms":5000}`) // retired fields: unknown
	f.Add(`{"dataset":"d","evaluator":"local"}`)
	f.Add(`{"dataset":"d","evaluator":"quantum"}`)
	f.Add(`{"dataset":""}`)
	f.Add(`{"dataset":"d","timeout_ms":-1}`)
	f.Add(`{"dataset":"d","unknown_field":1}`)
	f.Add(`{"dataset":"d"} {"second":"doc"}`)
	f.Add(`{"dataset":"d","config":{"alpha":1e999}}`)
	f.Add(`{"spec_version":1,"dataset":"d","mode":"monitor"}`)
	f.Add(`{"spec_version":1,"dataset":"d","window":{"last_rows":100}}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"anytime","budget_ms":500}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"anytime"}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"windowed","window":{"last_ms":60000}}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"diff","baseline":"ds_base"}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"diff"}`)
	f.Add(`{"spec_version":2,"dataset":"d","mode":"diff","baseline":"b","evaluator":"dist"}`)
	f.Add(`{"spec_version":2,"dataset":"d","baseline":"b"}`)
	f.Add(`{"spec_version":2,"dataset":"d","budget_ms":-5}`)
	f.Add(`{"spec_version":2,"dataset":"d","config":{"significance":0.01},"mode":"anytime","budget_ms":100}`)
	f.Add(`{"spec_version":2,"dataset":"d","config":{"significance":1.5}}`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadJobSpec) {
				t.Fatalf("rejection does not wrap ErrBadJobSpec: %v", err)
			}
			return
		}
		if err := spec.validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		// Round trip: the accepted spec re-encodes to a body the decoder
		// accepts and maps to the same spec.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := DecodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoder rejects its own accepted spec %s: %v", enc, err)
		}
		// Compare the re-marshaled forms: JobSpec holds a *WindowSpec, so
		// direct struct equality would compare pointers, not contents.
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshalling round-tripped spec: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n was: %s\n now: %s", enc, enc2)
		}
	})
}
