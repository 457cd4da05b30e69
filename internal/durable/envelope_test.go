package durable

import "testing"

// TestFastEnvelopeMalformed feeds corrupt record streams to the partition
// decoder and pins the error each one fails with. The envelope errors are
// encoding/json's own text; fsck findings carry these strings as details.
func TestFastEnvelopeMalformed(t *testing.T) {
	meta := marshalEnvelope(envelope{T: "meta", Meta: &metaRec{}})
	row := marshalEnvelope(envelope{T: "row", Row: &rowRec{Entity: "e", Events: 1}})
	cases := map[string]struct {
		payloads [][]byte
		want     string
	}{
		"truncated json": {[][]byte{meta, row, []byte(`{"t":"ev","ev":{"seq":1`)},
			"envelope: unexpected end of JSON input"},
		"bad base64": {[][]byte{meta, row, []byte(`{"t":"ev","ev":{"seq":1,"ns":0,"kind":"k","payload":"@@@@"}}`)},
			"envelope: illegal base64 data at input byte 0"},
		"unknown type":    {[][]byte{meta, []byte(`{"t":"wat"}`)}, `unknown envelope type "wat"`},
		"row before meta": {[][]byte{row}, "row record out of place"},
		"double meta":     {[][]byte{meta, meta}, "unexpected meta record"},
		"event outside row": {[][]byte{meta, marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 1}})},
			"event record outside a row"},
		"overdeclared row": {[][]byte{meta, row, marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 1}}), marshalEnvelope(envelope{T: "ev", Ev: &evRec{Seq: 2}})},
			`row "e": more events than declared 1`},
		"seq overflow": {[][]byte{meta, row, []byte(`{"t":"ev","ev":{"seq":99999999999999999999,"ns":0,"kind":"k"}}`)},
			"envelope: json: cannot unmarshal number 99999999999999999999 into Go struct field evRec.ev.seq of type uint64"},
		"leading zero": {[][]byte{meta, row, []byte(`{"t":"ev","ev":{"seq":01,"ns":0,"kind":"k"}}`)},
			"envelope: invalid character '1' after object key:value pair"},
		"raw control in kind": {[][]byte{meta, row, []byte("{\"t\":\"ev\",\"ev\":{\"seq\":1,\"ns\":0,\"kind\":\"a\x01b\"}}")},
			`envelope: invalid character '\x01' in string literal`},
	}
	for name, tc := range cases {
		pd := &partitionDecoder{}
		var err error
		for _, p := range tc.payloads {
			if err = pd.next(p); err != nil {
				break
			}
		}
		if err == nil {
			_, err = pd.finish()
		}
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: got error %v, want %q", name, err, tc.want)
		}
	}
}
