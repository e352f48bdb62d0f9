package main

// Rung "transport": the same host reached through a ShardClient — the
// in-process local client, then a real TCP connection on 127.0.0.1. Local
// minus host is the client seam's own cost; loopback minus local, paired by
// request on identical hosts, is what the wire adds.
//
// Pins: transport.NewLocal, transport.ServeLoopback, transport.DialLoopback,
// LoopbackServer.Addr/Close, ShardClient.Query/ApplyOp/AppendWAL/Close.

import (
	"gcplus/internal/shardhost"
	"gcplus/internal/transport"
)

func rungTransportLocal(l *spanLog, c runConfig, in *inputs, tmp string) (*shardRun, error) {
	hs, err := newHostStack(in, c.dataDir(tmp, "local"))
	if err != nil {
		return nil, err
	}
	return runShardRung(l, c, in, &shardTarget{svc: transport.NewLocal(hs.host), cleanup: hs.close}, "transport.local", "router")
}

func rungTransportLoopback(l *spanLog, c runConfig, in *inputs, tmp string) (*shardRun, error) {
	hs, err := newHostStack(in, c.dataDir(tmp, "loopback"))
	if err != nil {
		return nil, err
	}
	srv, err := transport.ServeLoopback([]*shardhost.Host{hs.host})
	if err != nil {
		hs.close()
		return nil, err
	}
	client, err := transport.DialLoopback(srv.Addr(), 0)
	if err != nil {
		srv.Close()
		hs.close()
		return nil, err
	}
	cleanup := func() error {
		err := client.Close()
		if serr := srv.Close(); err == nil {
			err = serr
		}
		if herr := hs.close(); err == nil {
			err = herr
		}
		return err
	}
	return runShardRung(l, c, in, &shardTarget{svc: client, cleanup: cleanup}, "transport.loopback", "router")
}
