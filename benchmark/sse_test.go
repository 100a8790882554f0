package main

import (
	"strings"
	"testing"
	"time"
)

func TestReadFrames(t *testing.T) {
	const in = ": subscribed\n\n" +
		"event: window\ndata: {\"query_time\":3600}\n\n" +
		"event: window\r\ndata: first\r\ndata: second\r\n\r\n" +
		"retry: 1000\n\n" + // a field we do not use opens no frame
		"data:nospace\n\n" +
		"event: window\ndata: cut off mid-frame"
	tick := time.Unix(0, 0)
	now := func() time.Time { tick = tick.Add(time.Second); return tick }
	var got []frame
	n, err := readFrames(strings.NewReader(in), now, func(f frame) { got = append(got, f) })
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(in)) {
		t.Errorf("read %d bytes, want %d", n, len(in))
	}
	want := []struct{ event, data string }{
		{"window", `{"query_time":3600}`},
		{"window", "first\nsecond"},
		{"", "nospace"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].event != w.event || string(got[i].data) != w.data {
			t.Errorf("frame %d = %q %q, want %q %q", i, got[i].event, got[i].data, w.event, w.data)
		}
		if at := time.Unix(int64(i+1), 0); !got[i].at.Equal(at) {
			t.Errorf("frame %d stamped %v, want %v: one clock read per completed frame", i, got[i].at, at)
		}
	}
}
