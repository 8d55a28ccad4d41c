package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"
)

// TestBatchBasicGolden pins the basic batchSQL response at one worker byte
// for byte, less what differs between runs: query_id, every elapsed_ms and
// every trace. testdata/batch_basic.golden was captured before /query/batch
// ran through stmt.ExecuteFleet and must not be regenerated to make this
// pass.
func TestBatchBasicGolden(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv.URL+"/query/batch", BatchRequest{SQL: batchSQL, Workers: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var compact, got bytes.Buffer
	if err := dropKeys(dec, &compact, map[string]bool{"query_id": true, "elapsed_ms": true, "trace": true}); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&got, compact.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	const path = "testdata/batch_basic.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("basic batch response moved:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// dropKeys copies the next JSON value of dec to buf in compact form, leaving
// out every object member whose key is in drop, at any depth. Member order
// and number text are kept as read (dec must use numbers).
func dropKeys(dec *json.Decoder, buf *bytes.Buffer, drop map[string]bool) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	open, ok := tok.(json.Delim)
	if !ok {
		b, err := json.Marshal(tok)
		buf.Write(b)
		return err
	}
	buf.WriteString(open.String())
	for n := 0; dec.More(); n++ {
		if open == '{' {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			if drop[key.(string)] {
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return err
				}
				n--
				continue
			}
			if n > 0 {
				buf.WriteByte(',')
			}
			b, _ := json.Marshal(key)
			buf.Write(b)
			buf.WriteByte(':')
		} else if n > 0 {
			buf.WriteByte(',')
		}
		if err := dropKeys(dec, buf, drop); err != nil {
			return err
		}
	}
	end, err := dec.Token()
	if err != nil {
		return err
	}
	buf.WriteString(end.(json.Delim).String())
	return nil
}
