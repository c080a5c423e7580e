// Command mccli is a minimal interactive client for a memcached text-
// protocol server (this repository's mcserver or stock memcached): it
// forwards one command per line and prints the reply.
//
// Usage:
//
//	mccli [-addr localhost:11211] [command...]
//
// With arguments, runs a single command and exits:
//
//	mccli set greeting hello
//	mccli get greeting
//	mccli stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
)

func main() {
	addr := flag.String("addr", "localhost:11211", "server address")
	flag.Parse()

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("mccli: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	if args := flag.Args(); len(args) > 0 {
		if err := runOne(os.Stdout, conn, r, args); err != nil {
			log.Fatalf("mccli: %v", err)
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Println("mccli: connected; type commands ('set k v', 'get k', raw protocol otherwise)")
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		if err := runOne(os.Stdout, conn, r, fields); err != nil {
			log.Fatalf("mccli: %v", err)
		}
		if fields[0] == "quit" {
			return
		}
	}
}

// runOne sends one command, with a convenience form for set/get, and
// prints its reply to out.
func runOne(out io.Writer, conn net.Conn, r *bufio.Reader, fields []string) error {
	switch {
	case fields[0] == "set" && len(fields) == 3:
		// Convenience: set <key> <value>.
		value := fields[2]
		fmt.Fprintf(conn, "set %s 0 0 %d\r\n%s\r\n", fields[1], len(value), value)
		return printUntil(out, r, oneLine)
	case fields[0] == "get" || fields[0] == "gets":
		fmt.Fprintf(conn, "%s\r\n", strings.Join(fields, " "))
		return printUntil(out, r, untilEnd)
	case fields[0] == "stats":
		fmt.Fprintf(conn, "stats\r\n")
		return printUntil(out, r, untilEnd)
	case fields[0] == "quit":
		fmt.Fprintf(conn, "quit\r\n")
		return nil
	default:
		fmt.Fprintf(conn, "%s\r\n", strings.Join(fields, " "))
		return printUntil(out, r, oneLine)
	}
}

type stopFn func(line string) bool

func oneLine(string) bool { return true }

func untilEnd(line string) bool { return line == "END" }

func printUntil(out io.Writer, r *bufio.Reader, done stopFn) error {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		fmt.Fprintln(out, line)
		if done(line) {
			return nil
		}
	}
}
