package dist

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseWorkerList(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "a:1,b:2", want: []string{"a:1", "b:2"}},
		{in: " a:1 , b:2 ", want: []string{"a:1", "b:2"}}, // whitespace trimmed
		{in: "a:1,,b:2,", want: []string{"a:1", "b:2"}},   // empties dropped
		{in: ",,,", wantErr: "no worker addresses"},       // nothing left
		{in: "", wantErr: "no worker addresses"},          //
		{in: "a:1,b:2,a:1", wantErr: `duplicate worker address "a:1"`},
		{in: "a:1, a:1", wantErr: `duplicate worker address "a:1"`}, // dup after trim
	}
	for _, tc := range cases {
		got, err := ParseWorkerList(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseWorkerList(%q) error = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWorkerList(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkerList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestDialClusterClosesDialedOnFailure: when a later dial fails, DialCluster
// must close the workers it already dialed instead of leaking their
// connections. A raw listener stands in for the first worker, so the close
// is observed as EOF on the accepted connection.
func TestDialClusterClosesDialedOnFailure(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := lis.Accept(); err == nil {
			accepted <- c
		}
	}()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more: the second dial is refused

	if _, err := DialCluster([]string{lis.Addr().String(), deadAddr}, Options{}); err == nil {
		t.Fatal("DialCluster succeeded with an unreachable second worker")
	}
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the first worker was never dialed")
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("first worker's connection still open after the failed dial: read returned %v, want EOF", err)
	}
}
