package main

import (
	"bufio"
	"bytes"
	"io"
	"time"
)

// frame is one Server-Sent Events message, stamped when its terminating
// blank line was read — the moment a subscriber could act on it.
type frame struct {
	event string
	data  []byte
	at    time.Time
}

// readFrames parses an SSE stream until EOF, handing every message with an
// event or data field to fn, and returns the bytes read. Comment lines
// (": subscribed") and unknown fields are skipped; multiple data lines
// join with a newline, as the SSE grammar says. Lines have no length cap:
// rtecd sends a whole window as one data line.
func readFrames(r io.Reader, now func() time.Time, fn func(frame)) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var total int64
	var cur frame
	var open bool
	for {
		line, err := br.ReadBytes('\n')
		total += int64(len(line))
		if err != nil {
			if err == io.EOF {
				err = nil // a stream cut mid-frame drops that frame, as a browser would
			}
			return total, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if open {
				cur.at = now()
				fn(cur)
			}
			cur, open = frame{}, false
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "event":
			cur.event, open = string(value), true
		case "data":
			if cur.data != nil {
				cur.data = append(cur.data, '\n')
			}
			cur.data, open = append(cur.data, value...), true
		}
	}
}
