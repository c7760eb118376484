package serve

import "net/http"

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	Index(w, r)
}

// Index serves the bundled exploration page. Exported so the cluster
// gateway can serve the identical page — it talks pure /api/v1, which
// the gateway proxies, so one page works against both shapes.
func Index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

// indexHTML is the self-contained demo page: vanilla JS, no assets.
const indexHTML = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>VEXUS</title>
<style>
 body { font-family: sans-serif; margin: 0; background: #f4f4f7; }
 header { background: #27306b; color: #fff; padding: 8px 16px; }
 main { display: grid; grid-template-columns: 740px 1fr; gap: 12px; padding: 12px; }
 .panel { background: #fff; border-radius: 8px; padding: 10px; box-shadow: 0 1px 3px rgba(0,0,0,.15); }
 .panel h2 { margin: 2px 0 8px; font-size: 14px; color: #27306b; text-transform: uppercase; }
 #groups li { cursor: pointer; margin: 3px 0; list-style: none; }
 #groups li:hover { background: #eef; }
 #groups .size { color: #888; font-size: 12px; margin-left: 6px; }
 button { margin: 1px; font-size: 12px; }
 .bar { height: 12px; background: #9ecae1; display: inline-block; vertical-align: middle; }
 .ctx span { display: inline-block; background: #eef; border-radius: 4px; padding: 2px 6px; margin: 2px; font-size: 12px; }
 table { border-collapse: collapse; font-size: 12px; }
 td, th { border-bottom: 1px solid #ddd; padding: 2px 6px; text-align: left; }
</style></head>
<body>
<header><b>VEXUS</b> — Visualizing and EXploring User GroupS</header>
<main>
 <div>
  <div class="panel"><h2>GroupViz</h2>
   <img id="gv" width="720" height="480">
   <ul id="groups"></ul>
  </div>
  <div class="panel"><h2>History</h2><div id="history"></div></div>
 </div>
 <div>
  <div class="panel"><h2>Context</h2><div id="context" class="ctx"></div></div>
  <div class="panel"><h2>Stats / Focus</h2><div id="focus">click “focus” on a group</div></div>
  <div class="panel"><h2>Memo</h2><div id="memo"></div></div>
 </div>
</main>
<script>
let sid = sessionStorage.getItem('vexus-sid') || '';
async function ensureSession() {
  if (sid) {
    const res = await fetch('/api/v1/sessions/' + sid + '/state');
    if (res.ok) return res.json();
  }
  const res = await fetch('/api/v1/sessions', {method: 'POST'});
  if (!res.ok) {
    document.getElementById('groups').innerHTML =
      '<li><b>cannot start a session:</b> ' + (await res.text()) + '</li>';
    return null;
  }
  const state = await res.json();
  sid = state.session;
  sessionStorage.setItem('vexus-sid', sid);
  return state;
}
// act POSTs a v1 action batch; ?full=1 makes the response the full
// state snapshot, which is what the page renders from. The response
// ETag is '"sid.mutations"' and the mutation counter doubles as the
// SSE event id, so recording it here lets the diff listener skip
// re-fetching state for our own actions.
async function act(actions) {
  const res = await fetch('/api/v1/sessions/' + sid + '/actions?full=1', {
    method: 'POST',
    headers: {'Content-Type': 'application/json'},
    body: JSON.stringify(actions)});
  if (!res.ok) { alert(await res.text()); return null; }
  const m = (res.headers.get('ETag') || '').match(/\.(\d+)"$/);
  if (m) lastMut = Math.max(lastMut, Number(m[1]));
  return res.json();
}
// The live diff stream: every collaborator on this session (another
// tab, another analyst) pushes its mutations here as 'diff' events
// whose id is the post-action mutation counter. 'resync' carries a
// full snapshot (fresh attach, or we fell too far behind); 'closed'
// ends the stream — reason 'migrated' means the session moved shards
// and a reconnect (with the browser-kept Last-Event-ID) resumes it.
let lastMut = 0, es = null;
function connect() {
  if (es) es.close();
  // A fresh EventSource sends no Last-Event-ID header, so the resume
  // cursor rides the query parameter: resuming past lastMut delivers
  // exactly the missed diffs (or one resync if we are too far behind).
  es = new EventSource('/api/v1/sessions/' + sid + '/events' +
    (lastMut > 0 ? '?lastEventID=' + lastMut : ''));
  es.addEventListener('resync', e => {
    lastMut = Math.max(lastMut, Number(e.lastEventId) || 0);
    refresh(JSON.parse(e.data));
  });
  es.addEventListener('diff', async e => {
    const mut = Number(e.lastEventId) || 0;
    if (mut <= lastMut) return; // our own action; already rendered
    lastMut = mut;
    const res = await fetch('/api/v1/sessions/' + sid + '/state');
    if (res.ok) refresh(await res.json());
  });
  es.addEventListener('closed', e => {
    es.close();
    es = null;
    if (JSON.parse(e.data).reason === 'migrated') connect();
  });
}
async function refresh(state) {
  if (!state) state = await ensureSession();
  if (!state) return;
  if (!es && sid) connect();
  document.getElementById('gv').src = '/api/v1/sessions/' + sid + '/groupviz.svg?t=' + Date.now();
  const ul = document.getElementById('groups');
  ul.innerHTML = '';
  (state.shown || []).forEach(g => {
    const li = document.createElement('li');
    li.innerHTML = '<b>' + g.label + '</b><span class="size">' + g.size + ' users, sim ' +
      g.similarity.toFixed(2) + '</span> ' +
      '<button onclick="explore(' + g.id + ')">explore</button>' +
      '<button onclick="focusG(' + g.id + ')">focus</button>' +
      '<button onclick="bookmark(' + g.id + ')">memo</button>';
    ul.appendChild(li);
  });
  const ctx = document.getElementById('context');
  ctx.innerHTML = (state.context || []).map(e =>
    '<span>' + e.label + ' ' + e.score.toFixed(3) +
    (e.isUser ? '' : ' <a href="#" onclick="unlearn(\'' + e.label + '\');return false">×</a>') +
    '</span>').join('') || '<i>empty — explore to teach VEXUS</i>';
  document.getElementById('history').innerHTML = (state.history || []).map(h =>
    '<button onclick="backtrack(' + h.step + ')">' + h.step + ': ' + h.label + '</button>'
  ).join(' → ');
  const memo = state.memo || {};
  document.getElementById('memo').innerHTML =
    (memo.groups || []).map(g => '<div>◉ ' + g + '</div>').join('') +
    (memo.users || []).map(u => '<div>◇ ' + u + '</div>').join('') || '<i>empty</i>';
  renderFocus(state.focus);
}
function renderFocus(f) {
  const el = document.getElementById('focus');
  if (!f) { el.innerHTML = 'click “focus” on a group'; return; }
  let html = '<b>' + f.label + '</b> — ' + f.selected + ' / ' + f.members + ' selected' +
    '<br><img src="/api/v1/sessions/' + sid + '/focus.svg?t=' + Date.now() + '" onerror="this.style.display=\'none\'">';
  (f.histograms || []).forEach(h => {
    const max = Math.max(1, ...h.counts);
    html += '<div><b>' + h.attr + '</b>';
    h.labels.forEach((l, i) => {
      html += '<div>' + l + ' <span class="bar" style="width:' + (120 * h.counts[i] / max) +
        'px"></span> ' + h.counts[i] +
        ' <a href="#" onclick="brush(\'' + h.attr + '\',\'' + l + '\');return false">brush</a></div>';
    });
    html += '<a href="#" onclick="brush(\'' + h.attr + '\',\'\');return false">clear</a></div>';
  });
  if ((f.table || []).length) {
    html += '<table><tr><th>user</th><th>actions</th><th>profile</th><th></th></tr>';
    f.table.forEach(r => {
      html += '<tr><td>' + r.id + '</td><td>' + r.acts + '</td><td>' + r.demo.join(' · ') +
        '</td><td>' + (r.marked ? '✓' :
        '<button onclick="bookmarkUser(\'' + r.id + '\')">memo</button>') + '</td></tr>';
    });
    html += '</table>';
  }
  el.innerHTML = html;
}
async function explore(g)      { refresh(await act([{op: 'explore', group: g}])); }
async function focusG(g)       { refresh(await act([{op: 'focus', group: g}])); }
async function backtrack(step) { refresh(await act([{op: 'backtrack', step}])); }
async function brush(attr, value) {
  refresh(await act([value ? {op: 'brush', attr, values: [value]} : {op: 'brush', attr}]));
}
async function bookmark(g)     { refresh(await act([{op: 'bookmarkGroup', group: g}])); }
async function bookmarkUser(u) { refresh(await act([{op: 'bookmarkUser', user: u}])); }
async function unlearn(label) {
  const i = label.indexOf('=');
  refresh(await act([{op: 'unlearn', field: label.slice(0, i), value: label.slice(i + 1)}]));
}
refresh();
</script>
</body></html>`
