package main

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// TestRunOne drives runOne against the engine's text protocol served
// over an in-memory pipe, the per-connection loop mcserver runs, and
// checks what each command form prints.
func TestRunOne(t *testing.T) {
	cli, conn := net.Pipe()
	defer cli.Close()
	go func() {
		defer conn.Close()
		pc := memcached.NewProtoConn(conn, memcached.NewStore(memcached.StoreConfig{}))
		clk := simnet.NewVClock(0)
		for {
			if quit, err := pc.ServeOne(clk); quit || err != nil {
				return
			}
		}
	}()
	cli.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(cli)

	run := func(fields ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := runOne(&out, cli, r, fields); err != nil {
			t.Fatalf("%v: %v", fields, err)
		}
		return out.String()
	}
	for _, c := range []struct {
		fields []string
		want   string
	}{
		{[]string{"set", "greeting", "hello"}, "STORED\n"},
		{[]string{"set", "name", "mc"}, "STORED\n"},
		{[]string{"get", "greeting", "missing", "name"}, "VALUE greeting 0 5\nhello\nVALUE name 0 2\nmc\nEND\n"},
		{[]string{"delete", "name"}, "DELETED\n"},
		{[]string{"delete", "name"}, "NOT_FOUND\n"},
		{[]string{"get", "name"}, "END\n"},
	} {
		if got := run(c.fields...); got != c.want {
			t.Errorf("%v printed %q, want %q", c.fields, got, c.want)
		}
	}

	stats := run("stats")
	for _, line := range []string{"STAT curr_items 1\n", "STAT cmd_set 2\n", "STAT delete_hits 1\n"} {
		if !strings.Contains(stats, line) {
			t.Errorf("stats output lacks %q:\n%s", line, stats)
		}
	}
	if !strings.HasSuffix(stats, "\nEND\n") {
		t.Errorf("stats output does not end with END:\n%s", stats)
	}

	if got := run("quit"); got != "" {
		t.Errorf("quit printed %q", got)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Error("the server kept the connection open after quit")
	}
}
