package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/gstore"
	"graphtrek/internal/kv"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
)

const (
	numServers = 3
	replicas   = 2
)

// cluster is what three graphtrek-server processes and one gtq client hold,
// assembled in one process: every request crosses a loopback socket and the
// persistent kv store.
type cluster struct {
	dir        string
	stores     []*gstore.Store
	caches     []*gstore.CachedGraph
	servers    []*core.Server
	view       *route.View // the client's routing table
	transports []*rpc.TCP  // servers first, the client's last
	client     *core.Client
}

// openCluster builds the cluster under dir. A non-nil tracer is placed
// around the store, the read cache, Server.Handle and each transport.
func openCluster(dir string, cacheBytes int64, indexKeys []string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir}
	addrs := make([]string, numServers+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < numServers; i++ {
		st, err := gstore.Open(filepath.Join(dir, fmt.Sprintf("server-%02d", i)), kv.Options{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.stores = append(c.stores, st)
		var under gstore.Graph = st
		if tr != nil {
			under = tracedStore{st, tr, i}
		}
		cg := gstore.NewCachedGraph(under, cacheBytes)
		c.caches = append(c.caches, cg)
		var store gstore.Graph = cg
		if tr != nil {
			store = tracedCached{cg, tr, i}
		}
		for _, key := range indexKeys {
			if err := cg.EnableIndex(key); err != nil {
				c.close()
				return nil, err
			}
		}
		view := route.NewView(route.Identity(numServers, replicas))
		srv := core.NewServer(core.Config{
			ID:                i,
			Store:             store,
			Part:              view,
			Route:             view,
			ReplicationFactor: replicas,
			Workers:           4,
			HeartbeatInterval: time.Second,
		})
		c.servers = append(c.servers, srv)
		handle := rpc.Handler(srv.Handle)
		if tr != nil {
			handle = tr.handler(i, -1, srv.Handle)
		}
		tcp, err := rpc.NewTCPWithOptions(i, addrs, handle, rpc.TCPOptions{
			OnReconnect:   srv.ObserveReconnect,
			OnSendFailure: srv.ObserveSendFailure,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		addrs[i] = tcp.Addr()
		c.transports = append(c.transports, tcp)
	}
	c.view = route.NewView(route.Identity(numServers, replicas))
	c.client = core.NewClient(c.view)
	chandle := rpc.Handler(c.client.Handle)
	if tr != nil {
		chandle = tr.handler(numServers, cClientHandle, c.client.Handle)
	}
	ctcp, err := rpc.NewTCP(numServers, addrs, chandle)
	if err != nil {
		c.close()
		return nil, err
	}
	addrs[numServers] = ctcp.Addr()
	c.transports = append(c.transports, ctcp)
	// Ports resolve as each node binds; connections are dialled lazily, so
	// patching before the first Send is enough.
	for _, t := range c.transports {
		if err := t.PatchAddrs(addrs); err != nil {
			c.close()
			return nil, err
		}
	}
	for i, srv := range c.servers {
		var t rpc.Transport = c.transports[i]
		if tr != nil {
			t = &tracedTransport{Transport: t, tr: tr}
		}
		srv.Bind(t)
	}
	var t rpc.Transport = ctcp
	if tr != nil {
		t = &tracedTransport{Transport: t, tr: tr}
	}
	c.client.Bind(t)
	return c, nil
}

// flush forces every memtable to an SSTable.
func (c *cluster) flush() error {
	for _, st := range c.stores {
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// close stops servers, transports and stores and removes the data directory.
func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	for _, t := range c.transports {
		t.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	os.RemoveAll(c.dir)
}

// diskBytes sums the sizes of the files under the store directories.
func (c *cluster) diskBytes() (int64, error) {
	var n int64
	err := filepath.Walk(c.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
